// Routing Information Base: per-peer Adj-RIBs-In merged into a Loc-RIB by
// the decision process.
//
// The Rib is a pure routing-table machine with no notion of time or I/O;
// the simulator's Router owns one and feeds it decoded UPDATEs. Every
// mutation reports whether the *best* route for the prefix changed, which is
// exactly the signal the export machinery (and the paper's notion of
// forwarding instability) cares about.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/decision.h"
#include "bgp/intern.h"
#include "bgp/route.h"
#include "netbase/probe_map.h"
#include "obs/profile.h"

namespace iri::bgp {

// Outcome of applying one route event to the RIB.
struct RibChange {
  // True if the Loc-RIB entry for the prefix changed (new best, different
  // best attributes, or loss of all routes).
  bool best_changed = false;
  // The new best route, or nullptr if the prefix is now unreachable. Points
  // into the RIB's own storage, so it is valid only until the next mutation
  // of this Rib: Announce/Withdraw are too hot to deep-copy a candidate.
  const Candidate* new_best = nullptr;
};

class Rib {
 public:
  // Pre-size the probed-only exact-match index: a border router at paper
  // scale tracks tens of thousands of prefixes, and the early rehash
  // cascade shows up in the full-paper profile.
  Rib() { index_.Reserve(1 << 12); }

  // Registers a peer before routes from it can be accepted. `router_id` is
  // used for the final decision tie-break.
  void AddPeer(PeerId peer, IPv4Address router_id);

  bool HasPeer(PeerId peer) const {
    return Slot(peer) < peers_.size() && peers_[Slot(peer)].registered;
  }

  // Resolves the rib.announce / rib.withdraw / rib.lookup profile sites
  // against a (partition-private) registry. Null detaches.
  void AttachProfile(obs::Registry* registry) {
    if (registry == nullptr) {
      announce_site_ = withdraw_site_ = lookup_site_ = obs::ProfileSite{};
      return;
    }
    announce_site_ = obs::MakeProfileSite(*registry, "rib.announce");
    withdraw_site_ = obs::MakeProfileSite(*registry, "rib.withdraw");
    lookup_site_ = obs::MakeProfileSite(*registry, "rib.lookup");
  }

  // Applies an announcement from `peer`. Replaces any previous route from
  // the same peer for the same prefix (implicit withdrawal).
  RibChange Announce(PeerId peer, Route route);

  // Copy-avoiding variant for the hot update path: callers that hold a
  // long-lived attribute set (e.g. one decoded UPDATE fanned out over many
  // NLRI prefixes) pass it by reference and the RIB copy-assigns into
  // recycled candidate storage — a flapping route that re-announces the
  // same path shape settles into zero allocations per cycle.
  RibChange Announce(PeerId peer, const Prefix& prefix,
                     const PathAttributes& attrs);

  // Applies an explicit withdrawal. A withdrawal for a route the peer never
  // announced is a no-op (this is how WWDup pathologies look to a receiver).
  RibChange Withdraw(PeerId peer, const Prefix& prefix);

  // Drops every route learned from `peer` (session loss). Returns the
  // prefixes whose best route changed, in address order; callers re-read
  // Best() for the new state.
  std::vector<Prefix> ClearPeer(PeerId peer);

  // Current best route for `prefix`, or nullptr if unreachable.
  const Candidate* Best(const Prefix& prefix) const;

  // All candidates currently held for `prefix` (used by the multihoming
  // census and by tests).
  std::vector<Candidate> CandidatesFor(const Prefix& prefix) const;

  // Number of distinct prefixes with at least one path. (Withdrawn-to-empty
  // entries linger in the table as tombstones so a flap cycle reuses their
  // storage; they are excluded here and skipped by every visitor.)
  std::size_t NumPrefixes() const { return num_prefixes_; }

  // Number of routes (prefix, peer) pairs in all Adj-RIBs-In.
  std::size_t NumRoutes() const { return num_routes_; }

  // Number of prefixes learned from `peer`.
  std::size_t PeerRouteCount(PeerId peer) const {
    return Slot(peer) < peers_.size() ? peers_[Slot(peer)].routes : 0;
  }

  // The hash-consed AS-path table backing the decision fast path. Exposed
  // for tests and for the full-paper bench's memory report.
  const AsPathTable& paths() const { return paths_; }

  // Full O(routes) structural audit: index ↔ entry id agreement, per-peer
  // route counts and num_routes_/num_prefixes_ against the table, best
  // indexes (tombstones have none), one route per peer per prefix, and the
  // cached address order being a sorted permutation of the ids it covers.
  // IRI_ASSERTs each clause, so under the default abort policy a false
  // return is unreachable. Called by tests and, in debug builds, by ClearPeer.
  bool AuditInvariants() const;

  // Visitors run in address order, Prefix's (bits, length), which puts a
  // covering prefix first. They update a shared cached order, so one Rib
  // must not be visited from two threads at once.

  // Visits (prefix, best candidate) over the whole Loc-RIB.
  template <typename Fn>
  void VisitBest(Fn&& fn) const {
    for (const std::uint32_t id : SortedIds()) {
      const Entry& e = entries_[id];
      if (e.best >= 0) fn(e.prefix, e.Best());
    }
  }

  // Visits (prefix, number of distinct paths) — Figure 10's multihoming
  // census runs on this.
  template <typename Fn>
  void VisitPathCounts(Fn&& fn) const {
    for (const std::uint32_t id : SortedIds()) {
      const Entry& e = entries_[id];
      if (!e.candidates.empty()) fn(e.prefix, e.candidates.size());
    }
  }

 private:
  struct Entry {
    Prefix prefix;
    std::vector<Candidate> candidates;
    int best = -1;  // index into candidates, -1 when empty
    const Candidate& Best() const {
      return candidates[static_cast<std::size_t>(best)];
    }
    // Withdrawn candidates parked for reuse: their attribute buffers keep
    // their capacity, so the withdraw→announce flap cycle — the workload's
    // dominant pattern — recycles storage instead of churning the heap.
    // Bounded by the number of peers that ever announced the prefix.
    std::vector<Candidate> pool;
  };

  struct PeerState {
    IPv4Address router_id;
    std::size_t routes = 0;  // Adj-RIB-In size
    bool registered = false;
  };

  // Dense peer slot: kLocalPeer (all ones) wraps to 0, peer p lands at p+1.
  static std::size_t Slot(PeerId peer) { return PeerId{peer + 1}; }

  // Entry ids in address order. Sorts and merges in only the ids appended
  // since the last call: full-table dumps far outnumber new prefixes.
  const std::vector<std::uint32_t>& SortedIds() const;

  // Entries are appended on a prefix's first announcement and never erased
  // (tombstones), so ids are stable. The index is probed only (no iteration
  // API), so its slot order cannot reach any output.
  std::vector<Entry> entries_;
  ProbeMap<Prefix, std::uint32_t> index_;
  mutable std::vector<std::uint32_t> sorted_ids_;
  std::vector<PeerState> peers_;  // indexed by Slot(peer)
  AsPathTable paths_;
  std::size_t num_routes_ = 0;
  std::size_t num_prefixes_ = 0;  // live (non-tombstone) entries
  obs::ProfileSite announce_site_;
  obs::ProfileSite withdraw_site_;
  obs::ProfileSite lookup_site_;
};

}  // namespace iri::bgp
