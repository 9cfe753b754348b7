// The measurement apparatus: taps a route server's peerings, classifies
// every prefix update, optionally logs raw messages in MRT form, and fans
// classified events out to any number of statistics collectors.
//
// This is the software analogue of the paper's §2 methodology: "we logged
// BGP routing messages exchanged with the Routing Arbiter project's route
// servers ... [and] use several tools to decode and analyze the BGP packet
// logs".
//
// Ingest is one pass per message: log the MRT record, explode the message
// into per-prefix events, then classify each event in arrival order and
// hand it to the counters, the series instruments and the sinks before the
// next one. The same pass serves the live tap and offline replay, which is
// why a live run and its replay produce identical monitor.* snapshots.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/classifier.h"
#include "core/event.h"
#include "mrt/log.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "sim/router.h"

namespace iri::core {

class ExchangeMonitor {
 public:
  using Sink = std::function<void(const ClassifiedEvent&)>;

  // Installs this monitor as `route_server`'s update tap. The monitor must
  // outlive the router (or the tap must be cleared first).
  void Attach(sim::Router& route_server);

  // Registers a collector callback; called for every classified event in
  // arrival order.
  void AddSink(Sink sink) { sinks_.push_back(std::move(sink)); }

  // Mirrors every tapped UPDATE message into an MRT log. Not owned.
  void SetMrtWriter(mrt::Writer* writer) { mrt_ = writer; }

  // Attaches the monitor.* instruments (message/event counters, one counter
  // per taxonomy bin, the monitor.ingest/monitor.drain profile sites).
  // Every counter the live tap feeds is also fed by offline Replay(), so a
  // live run and its MRT replay produce identical "monitor."-prefixed
  // snapshots — the replay-differential test's contract. MRT record
  // accounting deliberately lives under "mrt.records" (outside the prefix):
  // replay has no writer.
  void AttachMetrics(obs::Registry* registry);

  // Attaches the streaming telemetry feeds: windowed series instruments
  // (monitor.updates / monitor.wwdup / monitor.aadup counters and the
  // monitor.events_per_msg sliding-window histogram) drained by the
  // scenario's periodic flush, plus the per-event peer feed of the health
  // monitor's flap-burst sessionizer. Either pointer may be null; null/null
  // detaches. Costs a few cached-pointer increments per event when attached,
  // two pointer tests when not.
  void AttachTimeSeries(obs::SeriesFlusher* series,
                        obs::HealthMonitor* health);

  // Feeds one update message through the pipeline — used both by the live
  // tap and by offline MRT replay. `wire` optionally carries the message's
  // received wire bytes; when present the MRT writer logs them directly
  // (zero-copy) instead of re-encoding `update`. Encode(Decode(x)) == x is
  // pinned by the wire-roundtrip fuzz suite, so the logged bytes are
  // identical either way.
  // `causes` is the message's provenance sideband (withdrawn-then-NLRI
  // order; empty for replay and untagged senders) — it flows into the
  // exploded events and from there into the classifier's attribution
  // matrix, never into the MRT bytes.
  void Ingest(TimePoint now, bgp::PeerId peer, bgp::Asn peer_asn,
              const bgp::UpdateMessage& update,
              std::span<const std::uint8_t> wire = {},
              const obs::CauseVec& causes = {});

  // Replays an MRT log through the monitor (offline analysis path).
  // Returns the number of UPDATE messages ingested.
  std::uint64_t Replay(mrt::Reader& reader);

  const Classifier& classifier() const { return classifier_; }
  std::uint64_t events_seen() const { return events_seen_; }
  std::uint64_t messages_seen() const { return messages_seen_; }

 private:
  Classifier classifier_;
  std::vector<Sink> sinks_;
  mrt::Writer* mrt_ = nullptr;
  bgp::Asn local_asn_ = 0;
  std::uint64_t events_seen_ = 0;
  std::uint64_t messages_seen_ = 0;
  // The current message's events. Slots recycle their attribute buffers
  // via ExplodeUpdateReuse; only the first n of a message are live.
  std::vector<UpdateEvent> events_;
  ClassifiedEvent classified_scratch_;  // sink view (recycled)
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* events_metric_ = nullptr;
  obs::Counter* mrt_records_metric_ = nullptr;
  std::array<obs::Counter*, kNumCategories> category_metrics_{};
  obs::ProfileSite ingest_site_;
  // Times the classify loop inside Ingest (nested in monitor.ingest).
  obs::ProfileSite drain_site_;
  obs::WindowedCounter* updates_series_ = nullptr;
  obs::WindowedCounter* wwdup_series_ = nullptr;
  obs::WindowedCounter* aadup_series_ = nullptr;
  obs::WindowedHistogram* events_per_msg_series_ = nullptr;
  obs::HealthMonitor* health_ = nullptr;
};

}  // namespace iri::core
