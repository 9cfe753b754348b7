// The unit of analysis: a single per-prefix routing update event as seen at
// a collection point (one route-server peering).
//
// A BGP UPDATE message carries many prefixes; the paper's statistics count
// *prefix updates* ("routers ... exchange between three and six million
// routing prefix updates each day"). ExplodeUpdate flattens messages into
// that unit.
#pragma once

#include <vector>

#include "bgp/message.h"
#include "bgp/route.h"
#include "netbase/time.h"
#include "obs/provenance.h"

namespace iri::core {

struct UpdateEvent {
  TimePoint time;
  bgp::PeerId peer = 0;   // collector-local peering id
  bgp::Asn peer_asn = 0;  // AS of the announcing border router
  bool is_withdraw = false;
  Prefix prefix;
  // Meaningful only when !is_withdraw: ExplodeUpdateReuse leaves whatever
  // a recycled withdrawal slot held, so its buffers serve the next announce.
  bgp::PathAttributes attributes;
  // Provenance sideband: the injected root cause this event descends from
  // (null for MRT replay and untagged senders; zero bytes when compiled out).
  [[no_unique_address]] obs::CauseTag cause{};

  bgp::PrefixPeer Key() const { return {prefix, peer}; }
};

// Like ExplodeUpdate below, but recycles `out`'s elements — and their
// attribute buffer capacity — instead of destroying and re-creating them.
// `out` only ever grows; the first n elements, n returned, are valid. This
// is the monitor's per-message hot path: at full paper scale it runs
// hundreds of thousands of times per simulated day, and buffer reuse makes
// the steady state allocation-free.
inline std::size_t ExplodeUpdateReuse(TimePoint now, bgp::PeerId peer,
                                      bgp::Asn peer_asn,
                                      const bgp::UpdateMessage& update,
                                      std::vector<UpdateEvent>& out,
                                      const obs::CauseVec& causes = {}) {
  const std::size_t total = update.withdrawn.size() + update.nlri.size();
  if (out.size() < total) out.resize(total);
  std::size_t n = 0;
  // The cause sideband indexes wire event order: withdrawn, then NLRI —
  // exactly the order this loop pair emits, so event n takes causes[n].
  for (const Prefix& w : update.withdrawn) {
    UpdateEvent& ev = out[n];
    ev.time = now;
    ev.peer = peer;
    ev.peer_asn = peer_asn;
    ev.is_withdraw = true;
    ev.prefix = w;
    // attributes untouched: resetting them would free the AS-path buffers
    // the next announce landing in this slot can reuse.
    ev.cause = n < causes.size() ? causes[n] : obs::CauseTag{};
    ++n;
  }
  for (const Prefix& p : update.nlri) {
    UpdateEvent& ev = out[n];
    ev.time = now;
    ev.peer = peer;
    ev.peer_asn = peer_asn;
    ev.is_withdraw = false;
    ev.prefix = p;
    ev.attributes = update.attributes;
    ev.cause = n < causes.size() ? causes[n] : obs::CauseTag{};
    ++n;
  }
  return n;
}

// Flattens an UPDATE message into per-prefix events, withdrawals first
// (matching their position in the wire format).
inline void ExplodeUpdate(TimePoint now, bgp::PeerId peer, bgp::Asn peer_asn,
                          const bgp::UpdateMessage& update,
                          std::vector<UpdateEvent>& out) {
  for (const Prefix& w : update.withdrawn) {
    UpdateEvent ev;
    ev.time = now;
    ev.peer = peer;
    ev.peer_asn = peer_asn;
    ev.is_withdraw = true;
    ev.prefix = w;
    out.push_back(std::move(ev));
  }
  for (const Prefix& p : update.nlri) {
    UpdateEvent ev;
    ev.time = now;
    ev.peer = peer;
    ev.peer_asn = peer_asn;
    ev.is_withdraw = false;
    ev.prefix = p;
    ev.attributes = update.attributes;
    out.push_back(std::move(ev));
  }
}

}  // namespace iri::core
