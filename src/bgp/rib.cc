#include "bgp/rib.h"

#include <algorithm>
#include <numeric>

#include "core/invariants.h"

namespace iri::bgp {

namespace {

// The candidate `peer` holds among `candidates`, or end().
template <typename Candidates>
auto FromPeer(Candidates& candidates, PeerId peer) {
  return std::find_if(candidates.begin(), candidates.end(),
                      [peer](const Candidate& c) { return c.peer == peer; });
}

}  // namespace

void Rib::AddPeer(PeerId peer, IPv4Address router_id) {
  if (Slot(peer) >= peers_.size()) peers_.resize(Slot(peer) + 1);
  peers_[Slot(peer)].router_id = router_id;
  peers_[Slot(peer)].registered = true;
}

RibChange Rib::Announce(PeerId peer, Route route) {
  return Announce(peer, route.prefix, route.attributes);
}

RibChange Rib::Announce(PeerId peer, const Prefix& prefix,
                        const PathAttributes& attrs) {
  obs::ScopedTimer timer(&announce_site_, 1);
  IRI_ASSERT(HasPeer(peer),
             "Announce from a peer never registered with AddPeer");
  const auto [id, inserted] = index_.TryEmplace(prefix);
  if (inserted) {
    *id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back().prefix = prefix;
  }
  Entry& entry = entries_[*id];
  if (entry.candidates.empty()) ++num_prefixes_;  // fresh entry or tombstone
  const bool had_best = entry.best >= 0;
  const PeerId old_best_peer = had_best ? entry.Best().peer : kLocalPeer;

  // Only the announcing peer's candidate can mutate, so change detection
  // needs one comparison, made before the overwrite. Re-announcements
  // dominate the update stream, so the replace path skips the intern table
  // when it can: a byte-equal attribute set keeps everything, an unchanged
  // AS path keeps the cached id and decision metadata.
  bool replaced_same_attrs = false;
  Candidate* repath = nullptr;  // candidate whose AS path must be interned
  if (auto it = FromPeer(entry.candidates, peer);
      it != entry.candidates.end()) {  // implicit withdrawal of the old path
    replaced_same_attrs = it->attributes == attrs;
    if (!replaced_same_attrs && it->attributes.as_path == attrs.as_path) {
      it->attributes = attrs;  // path unchanged: cached metadata stay valid
    } else if (!replaced_same_attrs) {
      repath = &*it;
    }
  } else {
    if (!entry.pool.empty()) {
      // Revive a parked candidate: its attribute buffers keep their
      // capacity, so the copy-assign below usually allocates nothing.
      entry.candidates.push_back(std::move(entry.pool.back()));
      entry.pool.pop_back();
    } else {
      entry.candidates.emplace_back();
    }
    repath = &entry.candidates.back();
    repath->peer = peer;
    repath->peer_router_id = peers_[Slot(peer)].router_id;
    ++peers_[Slot(peer)].routes;
    ++num_routes_;
  }
  if (repath != nullptr) {
    const AsPathId path_id = paths_.Intern(attrs.as_path);
    repath->attributes = attrs;
    repath->as_path_id = path_id;
    repath->decision_length = paths_.DecisionLength(path_id);
    repath->first_asn = paths_.FirstAsn(path_id);
  }

  entry.best = SelectBest(entry.candidates);
  IRI_DCHECK(entry.best >= 0 && static_cast<std::size_t>(entry.best) <
                                    entry.candidates.size(),
             "decision process must pick a best route from the candidates");
  RibChange change;
  change.new_best = &entry.Best();
  // When the same peer stayed best, only the announcing peer's attributes
  // can have changed (compared above); any other candidate is untouched.
  change.best_changed = !had_best || old_best_peer != change.new_best->peer ||
                        (old_best_peer == peer && !replaced_same_attrs);
  return change;
}

RibChange Rib::Withdraw(PeerId peer, const Prefix& prefix) {
  obs::ScopedTimer timer(&withdraw_site_, 1);
  const std::uint32_t* id = index_.Find(prefix);
  if (id == nullptr) return {};
  Entry& entry = entries_[*id];
  const auto it = FromPeer(entry.candidates, peer);
  if (it == entry.candidates.end()) return {};  // pathological: no-op
  const PeerId old_best_peer = entry.Best().peer;
  // Park the candidate for reuse instead of freeing its buffers: the erase
  // below only shuffles moved-from shells.
  entry.pool.push_back(std::move(*it));
  entry.candidates.erase(it);
  IRI_ASSERT(num_routes_ > 0,
             "Adj-RIB-In count underflow: removed a route with num_routes_ 0");
  --peers_[Slot(peer)].routes;
  --num_routes_;

  RibChange change;
  // Removing a non-best candidate never changes the best: the decision
  // ladder is a total order, so the previous maximum still wins.
  change.best_changed = old_best_peer == peer;
  if (entry.candidates.empty()) {
    // Tombstone: the entry (and its pooled storage) stays in the table so
    // the next announcement of this prefix reuses it wholesale.
    entry.best = -1;
    --num_prefixes_;
    return change;
  }
  entry.best = SelectBest(entry.candidates);
  change.new_best = &entry.Best();
  return change;
}

std::vector<Prefix> Rib::ClearPeer(PeerId peer) {
  std::vector<Prefix> changed;
  // Address order makes the caller's re-propagation order, and so the wire
  // bytes, a function of the table's contents alone.
  for (const std::uint32_t id : SortedIds()) {
    if (PeerRouteCount(peer) == 0) break;
    const Entry& e = entries_[id];
    if (FromPeer(e.candidates, peer) == e.candidates.end()) continue;
    if (Withdraw(peer, e.prefix).best_changed) changed.push_back(e.prefix);
  }
  IRI_DCHECK(AuditInvariants(), "RIB bookkeeping inconsistent after ClearPeer");
  return changed;
}

const Candidate* Rib::Best(const Prefix& prefix) const {
  obs::ScopedTimer timer(&lookup_site_, 1);
  const std::uint32_t* id = index_.Find(prefix);
  if (id == nullptr || entries_[*id].best < 0) return nullptr;
  return &entries_[*id].Best();
}

std::vector<Candidate> Rib::CandidatesFor(const Prefix& prefix) const {
  const std::uint32_t* id = index_.Find(prefix);
  if (id == nullptr) return {};
  return entries_[*id].candidates;
}

const std::vector<std::uint32_t>& Rib::SortedIds() const {
  const std::size_t sorted = sorted_ids_.size();
  if (sorted == entries_.size()) return sorted_ids_;
  const auto by_prefix = [this](std::uint32_t a, std::uint32_t b) {
    return entries_[a].prefix < entries_[b].prefix;
  };
  sorted_ids_.resize(entries_.size());
  const auto fresh = sorted_ids_.begin() + static_cast<std::ptrdiff_t>(sorted);
  std::iota(fresh, sorted_ids_.end(), static_cast<std::uint32_t>(sorted));
  std::sort(fresh, sorted_ids_.end(), by_prefix);
  std::inplace_merge(sorted_ids_.begin(), fresh, sorted_ids_.end(), by_prefix);
  return sorted_ids_;
}

bool Rib::AuditInvariants() const {
  bool ok = true;
  const auto check = [&ok](bool holds, const char* what) {
    IRI_ASSERT(holds, what);
    ok = ok && holds;
  };
  std::size_t candidate_total = 0;
  std::size_t live_prefixes = 0;
  std::vector<std::size_t> peer_routes(peers_.size(), 0);
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    const std::uint32_t* idx = index_.Find(e.prefix);
    check(idx != nullptr && *idx == id,
          "exact-match index disagrees with the entry id");
    candidate_total += e.candidates.size();
    if (!e.candidates.empty()) ++live_prefixes;
    check(e.candidates.empty()
              ? e.best == -1
              : e.best >= 0 &&
                    static_cast<std::size_t>(e.best) < e.candidates.size(),
          "RIB entry best index out of range or tombstone with a best");
    for (auto c = e.candidates.begin(); c != e.candidates.end(); ++c) {
      check(FromPeer(e.candidates, c->peer) == c,
            "Adj-RIB-In holds two routes from one peer for one prefix");
      check(HasPeer(c->peer), "route from a peer never registered");
      if (HasPeer(c->peer)) ++peer_routes[Slot(c->peer)];
    }
  }
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    check(peer_routes[slot] == peers_[slot].routes,
          "per-peer route count disagrees with the table");
  }
  check(index_.size() == entries_.size(),
        "exact-match index holds prefixes without an entry");
  check(live_prefixes == num_prefixes_,
        "num_prefixes_ disagrees with the table's live entry count");
  check(candidate_total == num_routes_,
        "num_routes_ disagrees with the table's candidate count");
  // The cached order covers the ids that existed at the last visit.
  std::vector<bool> seen(sorted_ids_.size(), false);
  const Prefix* prev = nullptr;
  for (const std::uint32_t id : sorted_ids_) {
    const bool fresh = id < seen.size() && id < entries_.size() && !seen[id];
    check(fresh && (prev == nullptr || *prev < entries_[id].prefix),
          "cached address order is not a sorted permutation of entry ids");
    if (!fresh) continue;
    seen[id] = true;
    prev = &entries_[id].prefix;
  }
  return ok;
}

}  // namespace iri::bgp
