#include "sim/router.h"

#include <cassert>

#include "netbase/scratch.h"

namespace iri::sim {

Router::Router(Scheduler& sched, RouterConfig config, std::uint64_t seed)
    : sched_(sched),
      config_(std::move(config)),
      rng_(seed),
      dampener_(config_.dampening),
      busy_until_(TimePoint::Origin()) {
  rib_.AddPeer(bgp::kLocalPeer, IPv4Address(0));
}

bgp::PeerId Router::AttachLink(Link& link, bool side_a, bgp::Asn remote_asn,
                               bgp::Policy import_policy,
                               bgp::Policy export_policy) {
  const bgp::PeerId id = static_cast<bgp::PeerId>(peers_.size());
  bgp::SessionConfig fsm_cfg;
  fsm_cfg.local_asn = config_.asn;
  fsm_cfg.router_id = config_.router_id;
  fsm_cfg.hold_time_s = config_.hold_time_s;
  peers_.emplace_back(fsm_cfg, config_.packer, rng_.Next(),
                      std::move(import_policy), std::move(export_policy));
  peers_[id].link = &link;
  peers_[id].remote_asn = remote_asn;
  if (side_a) {
    link.AttachA(this, id);
  } else {
    link.AttachB(this, id);
  }
  // Router ids must be registered before routes can arrive. Remote router id
  // is modeled as the remote interface; we only need a deterministic
  // tie-break value, so derive it from the remote ASN and peer id.
  rib_.AddPeer(id, IPv4Address((remote_asn << 8) | (id & 0xFF)));
  peers_[id].fsm.SetTracer(tracer_, PeerLabel(id));
  return id;
}

std::string Router::PeerLabel(bgp::PeerId id) const {
  return config_.name + "/peer" + std::to_string(id);
}

void Router::AttachObservability(obs::Registry* registry,
                                 obs::Tracer* tracer) {
  tracer_ = tracer;
  // Suppress/release transitions trace from inside the dampener itself.
  dampener_.SetTracer(tracer);
  if (registry == nullptr) {
    metrics_ = RouterMetrics{};
    encode_site_ = decode_site_ = obs::ProfileSite{};
    rib_.AttachProfile(nullptr);
  } else {
    metrics_.messages_rx = &registry->GetCounter("router.messages_rx");
    metrics_.messages_tx = &registry->GetCounter("router.messages_tx");
    metrics_.updates_rx = &registry->GetCounter("router.updates_rx");
    metrics_.updates_tx = &registry->GetCounter("router.updates_tx");
    metrics_.decode_failures = &registry->GetCounter("router.decode_failures");
    metrics_.session_ups = &registry->GetCounter("router.session_ups");
    metrics_.session_downs = &registry->GetCounter("router.session_downs");
    metrics_.crashes = &registry->GetCounter("router.crashes");
    metrics_.damped_updates = &registry->GetCounter("router.damped_updates");
    metrics_.backlog_high_events =
        &registry->GetCounter("router.backlog_high_events");
    encode_site_ = obs::MakeProfileSite(*registry, "codec.encode");
    decode_site_ = obs::MakeProfileSite(*registry, "codec.decode");
    rib_.AttachProfile(registry);
  }
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    peers_[id].fsm.SetTracer(tracer_, PeerLabel(id));
  }
}

void Router::Originate(const bgp::Route& route) {
  if (crashed_) return;
  // Injection entry point: ops emitted for this change carry the ambient
  // cause (depth 0 — this is the router where the fault was injected).
  const obs::CauseTag cause = AmbientCause();
  // Border dampening (RFC 2439 deployed at the provider edge): flapping
  // customer routes accumulate penalty and, once suppressed, are installed
  // locally but NOT advertised until the reuse timer releases them.
  bool suppressed = false;
  if (config_.enable_dampening) {
    const std::uint32_t* prev = local_index_.Find(route.prefix);
    const bool exists = prev != nullptr && *prev != kNoLocalRoute;
    const bool attr_change =
        exists && !local_routes_[*prev].attributes.ForwardingEquivalent(
                      route.attributes);
    const auto verdict = dampener_.OnAnnounce(
        {route.prefix, bgp::kLocalPeer}, sched_.Now(), attr_change);
    suppressed = verdict != bgp::DampVerdict::kPass;
  }
  auto [slot, fresh] = local_index_.TryEmplace(route.prefix);
  if (fresh || *slot == kNoLocalRoute) {
    // Land in the first spare (an erased route's storage) when there is
    // one, so a flapping route's re-origination reuses its buffers.
    *slot = static_cast<std::uint32_t>(num_local_routes_);
    if (num_local_routes_ < local_routes_.size()) {
      local_routes_[num_local_routes_] = route;
    } else {
      local_routes_.push_back(route);
    }
    ++num_local_routes_;
  } else {
    local_routes_[*slot] = route;
  }
  // Local routes win the decision against any learned path. The scratch
  // member keeps its buffer capacity across the scenario's hundreds of
  // thousands of Originate calls.
  originate_scratch_ = route.attributes;
  originate_scratch_.local_pref = 1000;
  const bgp::RibChange change =
      rib_.Announce(bgp::kLocalPeer, route.prefix, originate_scratch_);
  if (suppressed) {
    ++stats_.damped_updates;
    if (metrics_.damped_updates) metrics_.damped_updates->Add(1);
    // Re-advertise when the dampener releases the route — the "legitimate
    // announcements delayed" cost the paper warns about.
    const TimePoint reuse =
        dampener_.ReuseTime({route.prefix, bgp::kLocalPeer}, sched_.Now());
    const Prefix prefix = route.prefix;
    sched_.At(reuse + Duration::Seconds(1), [this, prefix, cause] {
      if (crashed_ || !HasLocalRoute(prefix)) return;
      if (dampener_.IsSuppressed({prefix, bgp::kLocalPeer}, sched_.Now())) {
        return;  // re-flapped in the meantime; a later release is scheduled
      }
      // The delayed release still descends from the suppressed flap's cause.
      PropagateChange(prefix, cause);
    });
    return;
  }
  if (change.best_changed) PropagateChange(route.prefix, cause);
}

void Router::WithdrawLocal(const Prefix& prefix) {
  if (crashed_) return;
  const obs::CauseTag cause = AmbientCause();
  if (config_.enable_dampening) {
    dampener_.OnWithdraw({prefix, bgp::kLocalPeer}, sched_.Now());
  }
  if (std::uint32_t* slot = local_index_.Find(prefix);
      slot != nullptr && *slot != kNoLocalRoute) {
    // Swap-erase within the live prefix of the vector (the erased route
    // becomes the first spare); the index has no single-key erase, so the
    // vacated entry is tombstoned in place.
    const std::uint32_t i = *slot;
    const std::uint32_t last =
        static_cast<std::uint32_t>(num_local_routes_) - 1;
    if (i != last) {
      std::swap(local_routes_[i], local_routes_[last]);
      *local_index_.Find(local_routes_[i].prefix) = i;
    }
    --num_local_routes_;
    *slot = kNoLocalRoute;
  }
  const bgp::RibChange change = rib_.Withdraw(bgp::kLocalPeer, prefix);
  if (config_.stateless_bgp && rib_.Best(prefix) == nullptr) {
    BroadcastWithdraw(prefix, cause);
  }
  if (change.best_changed) PropagateChange(prefix, cause);
}

bool Router::HasLocalRoute(const Prefix& prefix) const {
  const std::uint32_t* slot = local_index_.Find(prefix);
  return slot != nullptr && *slot != kNoLocalRoute;
}

void Router::SprayWithdrawals(std::span<const Prefix> prefixes) {
  if (crashed_ || !config_.stateless_bgp) return;
  const obs::CauseTag cause = AmbientCause();
  for (const Prefix& p : prefixes) BroadcastWithdraw(p, cause);
}

void Router::InternalReset(double dirty_fraction) {
  if (crashed_) return;
  if (!config_.stateless_bgp) {
    // A stateful implementation coalesces the withdraw/re-learn pair inside
    // one flush window: nothing reaches any peer.
    return;
  }
  // The local routes behind the reset adjacency are marked dirty by the
  // IGP/iBGP reconvergence. The stateless flush re-sends current state for
  // exported prefixes (AADup at receivers) and emits withdrawals for
  // prefixes export policy never announced (WWDup). The sweep order (which
  // reaches the wire) is the dense vector's insertion/swap-erase order — a
  // pure function of the call history, not of any hash layout.
  const obs::CauseTag cause = AmbientCause();
  const std::size_t n = num_local_routes_;
  for (std::size_t i = 0; i < n; ++i) {
    if (dirty_fraction < 1.0 && rng_.Uniform() >= dirty_fraction) continue;
    PropagateChange(local_routes_[i].prefix, cause);
  }
}

bgp::SessionState Router::PeerSessionState(bgp::PeerId peer) const {
  return peers_[peer].fsm.state();
}

bgp::Asn Router::PeerAsn(bgp::PeerId peer) const {
  return peers_[peer].remote_asn;
}

Duration Router::Backlog() const {
  const TimePoint now = sched_.Now();
  return busy_until_ > now ? busy_until_ - now : Duration();
}

// ---------------------------------------------------------------- sessions

// The FSM entry points below share fsm_actions_. No action handler calls
// back into an FSM (sends are scheduled, and session up/down only queue
// route changes), so one buffer is never in use twice.

void Router::OnTransportUp(std::uint32_t peer) {
  if (crashed_) return;
  Peer& p = peers_[peer];
  fsm_actions_.clear();
  p.fsm.Start(sched_.Now(), fsm_actions_);
  p.fsm.OnTransportUp(sched_.Now(), fsm_actions_);
  HandleFsmActions(peer, fsm_actions_);
  ScheduleFsmTimer(peer);
}

void Router::OnTransportDown(std::uint32_t peer) {
  Peer& p = peers_[peer];
  fsm_actions_.clear();
  p.fsm.OnTransportDown(sched_.Now(), fsm_actions_);
  HandleFsmActions(peer, fsm_actions_);
  ScheduleFsmTimer(peer);
}

void Router::OnWireData(std::uint32_t peer, std::span<const std::uint8_t> bytes,
                        const obs::CauseVec& causes) {
  if (crashed_) return;
  Peer& p = peers_[peer];
  ++stats_.messages_rx;
  if (metrics_.messages_rx) metrics_.messages_rx->Add(1);

  // UPDATEs — the dominant wire type — decode into the router's scratch
  // message, reusing its buffers; everything else takes the allocating
  // Decode. The type byte sits at the fixed header offset, so routing on it
  // before decoding is exact, and DecodeUpdateInto applies the same
  // validation Decode would.
  const bool wire_is_update =
      bytes.size() >= bgp::kHeaderSize &&
      bytes[bgp::kHeaderSize - 1] ==
          static_cast<std::uint8_t>(bgp::MessageType::kUpdate);
  const bgp::UpdateMessage* update = nullptr;
  std::optional<bgp::Message> msg;
  {
    obs::ScopedTimer timer(&decode_site_, bytes.size());
    if (wire_is_update) {
      if (bgp::DecodeUpdateInto(bytes, decode_scratch_)) {
        update = &decode_scratch_;
      }
    } else {
      msg = bgp::Decode(bytes);
    }
  }
  if (update == nullptr && !msg) {
    ++stats_.decode_failures;
    if (metrics_.decode_failures) metrics_.decode_failures->Add(1);
    return;
  }

  // Charge the CPU for receive processing.
  Duration cost = config_.cost_per_message;
  if (update != nullptr) {
    cost += config_.cost_per_prefix *
            static_cast<double>(update->withdrawn.size() +
                                update->nlri.size());
  }
  ChargeCpu(cost);
  if (crashed_) return;  // the crash may have been triggered by this load

  const bool was_established =
      p.fsm.state() == bgp::SessionState::kEstablished;
  fsm_actions_.clear();
  if (update != nullptr) {
    // The FSM dispatches on the message's *type* only (an UPDATE's payload
    // never reaches it — established sessions just refresh the hold timer,
    // other states tear down or ignore), so a payload-free stand-in drives
    // it identically without copying the scratch into a variant.
    const bgp::Message update_stand_in{bgp::UpdateMessage{}};
    p.fsm.OnMessage(sched_.Now(), update_stand_in, fsm_actions_);
  } else {
    p.fsm.OnMessage(sched_.Now(), *msg, fsm_actions_);
  }
  HandleFsmActions(peer, fsm_actions_);
  ScheduleFsmTimer(peer);

  if (was_established && p.established && update != nullptr) {
    ++stats_.updates_rx;
    if (metrics_.updates_rx) metrics_.updates_rx->Add(1);
    if (tap_) tap_(sched_.Now(), peer, p.remote_asn, *update, bytes, causes);
    ProcessUpdate(peer, *update, causes);
  }
}

void Router::HandleFsmActions(bgp::PeerId id,
                              const bgp::SessionFsm::Actions& acts) {
  Peer& p = peers_[id];
  for (const auto& act : acts) {
    switch (act.type) {
      case bgp::SessionFsm::ActionType::kSendOpen: {
        bgp::OpenMessage open;
        open.asn = config_.asn;
        open.hold_time_s = config_.hold_time_s;
        open.bgp_identifier = config_.router_id;
        SendMessage(id, open, /*priority=*/true);
        break;
      }
      case bgp::SessionFsm::ActionType::kSendKeepAlive:
        SendMessage(id, bgp::KeepAliveMessage{},
                    /*priority=*/config_.bgp_priority_queuing);
        break;
      case bgp::SessionFsm::ActionType::kSendNotification:
        SendMessage(id, act.notification, /*priority=*/true);
        break;
      case bgp::SessionFsm::ActionType::kSessionUp:
        p.established = true;
        ++stats_.session_ups;
        if (metrics_.session_ups) metrics_.session_ups->Add(1);
        OnSessionUp(id);
        break;
      case bgp::SessionFsm::ActionType::kSessionDown:
        p.established = false;
        ++stats_.session_downs;
        if (metrics_.session_downs) metrics_.session_downs->Add(1);
        OnSessionDown(id);
        break;
    }
  }
}

void Router::ScheduleFsmTimer(bgp::PeerId id) {
  Peer& p = peers_[id];
  const TimePoint deadline = p.fsm.NextDeadline();
  if (deadline == TimePoint::Max()) return;
  // Lazy re-arm. SessionFsm::OnTimer is a pure deadline poll (every branch
  // guards on now >= deadline), so a poll already pending at or before the
  // new deadline will observe the moved deadline when it fires and re-arm
  // itself. The alternative — cancel-and-reschedule on every received
  // message — leaves one dead heap entry per message in the scheduler
  // (millions at paper scale; the hold timer moves on every keepalive).
  if (p.timer_armed <= deadline) return;
  p.timer_armed = deadline;
  sched_.At(deadline, [this, id] { FsmTimerFired(id); });
}

void Router::FsmTimerFired(bgp::PeerId id) {
  Peer& p = peers_[id];
  const TimePoint now = sched_.Now();
  // A poll that is not the tracked earliest one (superseded by an earlier
  // arm, or cancelled by Crash) is dead weight: drop it.
  if (p.timer_armed > now) return;
  p.timer_armed = TimePoint::Max();
  if (crashed_) return;
  const TimePoint deadline = p.fsm.NextDeadline();
  if (deadline == TimePoint::Max()) return;
  if (deadline > now) {
    // The deadline moved since this poll was armed (hold timer refreshed by
    // traffic): re-arm without consulting the FSM.
    ScheduleFsmTimer(id);
    return;
  }
  fsm_actions_.clear();
  p.fsm.OnTimer(now, fsm_actions_);
  HandleFsmActions(id, fsm_actions_);
  // Connect retry: if the transport (link) is still there, re-initiate
  // the handshake — the FSM only tracks deadlines, the "TCP connect" is
  // ours to perform.
  if (p.fsm.state() == bgp::SessionState::kConnect && p.link != nullptr &&
      p.link->up()) {
    OnTransportUp(id);
  } else {
    ScheduleFsmTimer(id);
  }
}

obs::CauseTag Router::SessionCause(bgp::PeerId id,
                                   obs::CauseKind emergent_kind) {
  obs::CauseTag cause = AmbientCause();
  if (cause.IsNull() && peers_[id].link != nullptr) {
    // The FSM derived this event from a link transition (possibly after the
    // OPEN handshake latency): inherit the cause captured at the transition.
    cause = peers_[id].link->transition_cause();
  }
  if (cause.IsNull() && prov_ != nullptr) {
    // No injected cause in scope — an emergent protocol event (hold-timer
    // expiry under load, organic re-establishment) becomes its own root.
    cause = prov_->Allocate(emergent_kind, sched_.Now());
  }
  return cause;
}

void Router::OnSessionUp(bgp::PeerId id) {
  FullDump(id, SessionCause(id, obs::CauseKind::kSessionRedump));
}

void Router::OnSessionDown(bgp::PeerId id) {
  Peer& p = peers_[id];
  p.adj_rib_out.Clear();
  const obs::CauseTag cause =
      SessionCause(id, obs::CauseKind::kSessionReset);
  // Everything learned from this peer is gone: a genuine topology change.
  for (const Prefix& prefix : rib_.ClearPeer(id)) {
    if (config_.stateless_bgp && rib_.Best(prefix) == nullptr) {
      BroadcastWithdraw(prefix, cause);
    }
    PropagateChange(prefix, cause);
  }
}

void Router::SendMessage(bgp::PeerId id, const bgp::Message& msg,
                         bool priority) {
  Peer& p = peers_[id];
  if (p.link == nullptr || !p.link->up()) return;
  ++stats_.messages_tx;
  if (metrics_.messages_tx) metrics_.messages_tx->Add(1);
  {
    obs::ScopedTimer timer(&encode_site_);
    wire_.Clear();
    bgp::EncodeInto(msg, wire_);
    timer.AddItems(wire_.size());
  }
  static const obs::CauseVec kNoCauses;
  SendWire(p.link, priority, kNoCauses);
}

void Router::SendPacked(bgp::PeerId id, std::size_t m) {
  Peer& p = peers_[id];
  if (p.link == nullptr || !p.link->up()) return;
  ++stats_.messages_tx;
  if (metrics_.messages_tx) metrics_.messages_tx->Add(1);
  ++stats_.updates_tx;
  if (metrics_.updates_tx) metrics_.updates_tx->Add(1);
  stats_.prefixes_announced_tx += packer_.nlri(m).size();
  stats_.prefixes_withdrawn_tx += packer_.withdrawn(m).size();
  {
    obs::ScopedTimer timer(&encode_site_);
    wire_.Clear();
    packer_.Encode(m, export_sets_, wire_);
    timer.AddItems(wire_.size());
  }
  SendWire(p.link, /*priority=*/false, packer_.causes(m));
}

void Router::SendWire(Link* link, bool priority, const obs::CauseVec& causes) {
  const TimePoint now = sched_.Now();
  // Non-priority traffic queues behind the CPU backlog; this is the delay
  // that starves KEEPALIVEs on busy route-caching routers.
  const TimePoint when = priority ? now : std::max(now, busy_until_);
  if (when <= now) {
    link->Send(this, wire_.data(), causes);
    return;
  }
  std::uint32_t slot;
  if (free_delayed_.empty()) {
    slot = static_cast<std::uint32_t>(delayed_.size());
    delayed_.emplace_back();
  } else {
    slot = free_delayed_.back();
    free_delayed_.pop_back();
  }
  DelayedSend& d = delayed_[slot];
  d.link = link;
  d.bytes.assign(wire_.data().begin(), wire_.data().end());
  d.causes = causes;
  sched_.At(when, [this, slot] { FireDelayedSend(slot); });
}

void Router::FireDelayedSend(std::uint32_t slot) {
  // Deliberately not gated on crashed_: the bytes had left the CPU queue.
  DelayedSend& d = delayed_[slot];
  d.link->Send(this, d.bytes, d.causes);
  // Keep steady-state-sized buffers for the next delayed send; a backlog
  // storm's 4 KiB updates and long cause lists are released.
  ClearRetaining(d.bytes, 1024);
  ClearRetaining(d.causes, 64);
  free_delayed_.push_back(slot);
  if (free_delayed_.size() == delayed_.size() && delayed_.size() > 64) {
    delayed_.clear();  // the backlog drained: drop the storm's extra slots
    delayed_.shrink_to_fit();
    free_delayed_.clear();
  }
}

// ------------------------------------------------------------ update path

bool Router::DampenAnnounce(bgp::PeerId from, const Prefix& nlri,
                            const bgp::PathAttributes& attrs) {
  const auto* existing = rib_.Best(nlri);
  const bool attr_change =
      existing != nullptr && existing->peer == from &&
      !existing->attributes.ForwardingEquivalent(attrs);
  const auto verdict =
      dampener_.OnAnnounce({nlri, from}, sched_.Now(), attr_change);
  if (verdict == bgp::DampVerdict::kPass) return false;
  ++stats_.damped_updates;
  if (metrics_.damped_updates) metrics_.damped_updates->Add(1);
  return true;
}

void Router::ProcessUpdate(bgp::PeerId from, const bgp::UpdateMessage& update,
                           const obs::CauseVec& causes) {
  Peer& p = peers_[from];
  // Prefixes whose best route changed (see ChangedEntry). Nothing below
  // re-enters ProcessUpdate, so the router's one list serves every call.
  std::vector<ChangedEntry>& changed = changed_;
  changed.clear();

  // The sideband is aligned with wire event order: withdrawn, then NLRI.
  // Re-propagating a received event moves it one hop further from its root.
  std::size_t ev = 0;
  const auto next_cause = [&causes, &ev]() -> obs::CauseTag {
    const obs::CauseTag tag =
        ev < causes.size() ? causes[ev] : obs::CauseTag{};
    ++ev;
    return tag.Bumped();
  };

  for (const Prefix& w : update.withdrawn) {
    const obs::CauseTag cause = next_cause();
    ++stats_.prefixes_withdrawn_rx;
    if (config_.enable_dampening) {
      dampener_.OnWithdraw({w, from}, sched_.Now());
    }
    const bgp::RibChange change = rib_.Withdraw(from, w);
    if (config_.stateless_bgp && rib_.Best(w) == nullptr) {
      // Any withdrawal — even for a route we never carried — is sprayed at
      // every peer: the implementation keeps no record of what it told whom.
      BroadcastWithdraw(w, cause);
    }
    if (change.best_changed) changed.push_back({w, cause});
  }

  // An identity import policy (the common case) lets every NLRI prefix of
  // the message share the decoded attribute set directly: no per-prefix
  // Route copy, and the RIB copy-assigns into recycled candidate storage.
  const bool identity_import = p.import_policy.IsIdentity();
  for (const Prefix& nlri : update.nlri) {
    const obs::CauseTag cause = next_cause();
    ++stats_.prefixes_announced_rx;
    if (update.attributes.as_path.Contains(config_.asn)) {
      ++stats_.loops_rejected;
      continue;
    }
    if (!identity_import) {
      bgp::Route route{nlri, update.attributes};
      if (!p.import_policy.ApplyInPlace(route)) {
        // Denied by policy: make sure no earlier route from this peer
        // lingers.
        const bgp::RibChange change = rib_.Withdraw(from, nlri);
        if (change.best_changed) changed.push_back({nlri, cause});
        continue;
      }
      if (config_.enable_dampening &&
          DampenAnnounce(from, nlri, route.attributes)) {
        if (rib_.Withdraw(from, nlri).best_changed) {
          changed.push_back({nlri, cause});
        }
        continue;
      }
      const bgp::RibChange change = rib_.Announce(from, std::move(route));
      if (change.best_changed) changed.push_back({nlri, cause});
      continue;
    }
    if (config_.enable_dampening &&
        DampenAnnounce(from, nlri, update.attributes)) {
      if (rib_.Withdraw(from, nlri).best_changed) {
        changed.push_back({nlri, cause});
      }
      continue;
    }
    const bgp::RibChange change =
        rib_.Announce(from, nlri, update.attributes);
    if (change.best_changed) changed.push_back({nlri, cause});
  }

  for (const ChangedEntry& entry : changed) {
    PropagateChange(entry.prefix, entry.cause);
  }
}

void Router::PropagateChange(const Prefix& prefix, obs::CauseTag cause) {
  if (config_.no_reexport) return;
  // One Best() lookup for the whole peer fan-out.
  const bgp::Candidate* best = rib_.Best(prefix);
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (!p.established) continue;
    const bgp::AttrSetId exported =
        best != nullptr ? ExportCandidate(p, prefix, *best)
                        : bgp::kInvalidAttrSetId;
    EnqueueOp(id, bgp::RouteOp{prefix, exported, false, cause});
  }
}

void Router::BroadcastWithdraw(const Prefix& prefix, obs::CauseTag cause) {
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    if (!peers_[id].established) continue;
    EnqueueOp(id, bgp::RouteOp{prefix, bgp::kInvalidAttrSetId, false, cause});
  }
}

bgp::AttrSetId Router::ExportCandidate(const Peer& peer, const Prefix& prefix,
                                       const bgp::Candidate& best) {
  // Split horizon: never hand a route back to the peer it came from.
  if (best.peer != bgp::kLocalPeer && &peer == &peers_[best.peer]) {
    return bgp::kInvalidAttrSetId;
  }
  // Sender-side loop avoidance: the receiver would reject it anyway.
  if (best.attributes.as_path.Contains(peer.remote_asn)) {
    return bgp::kInvalidAttrSetId;
  }
  // Build the exported set in the scratch route, whose buffers survive
  // from call to call, then intern it.
  bgp::Route& route = export_scratch_;
  route.prefix = prefix;
  route.attributes = best.attributes;
  if (!peer.export_policy.ApplyInPlace(route)) return bgp::kInvalidAttrSetId;
  if (!config_.transparent) {
    route.attributes.as_path.Prepend(config_.asn);
    route.attributes.next_hop = config_.interface_addr;
  }
  // LOCAL_PREF is iBGP-only; all peerings here are external.
  route.attributes.local_pref.reset();
  return export_sets_.Intern(route.attributes);
}

void Router::EnqueueOp(bgp::PeerId id, const bgp::RouteOp& op) {
  Peer& p = peers_[id];
  p.queue.Enqueue(sched_.Now(), op);
  if (!p.flush_scheduled) {
    p.flush_scheduled = true;
    sched_.At(p.queue.NextFlush(), [this, id] { FlushPeer(id); });
  }
}

void Router::FlushPeer(bgp::PeerId id) {
  Peer& p = peers_[id];
  p.flush_scheduled = false;
  if (crashed_) return;
  p.queue.Flush(sched_.Now(), flush_ops_);
  if (p.established && !flush_ops_.empty()) SendFlushed(id);
  // The drained vector becomes the queue's buffer at the next flush; a
  // full-table dump's capacity is not worth keeping per peer.
  ClearRetaining(flush_ops_, 1024);
  ClearRetaining(final_ops_, 1024);
}

void Router::SendFlushed(bgp::PeerId id) {
  Peer& p = peers_[id];
  std::vector<bgp::RouteOp>& final_ops = final_ops_;
  final_ops.clear();
  for (const bgp::RouteOp& op : flush_ops_) {
    if (config_.stateless_bgp) {
      // No Adj-RIB-Out: everything goes out, duplicates included. A
      // within-window withdraw..announce pair is transmitted as W then A
      // (the implementation sends withdrawals for every withdrawn prefix,
      // then the current state). The expanded W inherits the surviving op's
      // cause — the whole train descends from the same fault.
      if (op.withdraw_preceded) {
        final_ops.push_back(
            bgp::RouteOp{op.prefix, bgp::kInvalidAttrSetId, false, op.cause});
      }
      final_ops.push_back(op);
      continue;
    }
    bgp::AttrSetId* told = p.adj_rib_out.Find(op.prefix);
    if (op.IsWithdraw()) {
      if (told == nullptr || *told == bgp::kInvalidAttrSetId) {
        continue;  // never told them: suppress
      }
      *told = bgp::kInvalidAttrSetId;
    } else {
      if (told != nullptr && *told == op.attrs) {
        continue;  // peer already has exactly this route: suppress duplicate
      }
      if (told == nullptr) told = p.adj_rib_out.TryEmplace(op.prefix).first;
      *told = op.attrs;
    }
    final_ops.push_back(op);
  }
  if (final_ops.empty()) return;

  packer_.Pack(final_ops, export_sets_);
  for (std::size_t m = 0; m < packer_.size(); ++m) {
    // Marshaling cost per outbound prefix.
    const std::size_t prefixes =
        packer_.withdrawn(m).size() + packer_.nlri(m).size();
    ChargeCpu(config_.cost_per_prefix * (0.25 * static_cast<double>(prefixes)));
    if (crashed_) return;
    SendPacked(id, m);
  }
}

void Router::FullDump(bgp::PeerId id, obs::CauseTag cause) {
  if (config_.no_reexport) return;
  // A fresh session receives the entire Loc-RIB ("large state dump
  // transmissions" when a flapping session re-establishes). Batched walk:
  // the RIB visit hands us each best candidate directly, so no prefix is
  // looked up again.
  IRI_TRACE(tracer_, sched_.Now(), "redump_start",
            .Str("session", PeerLabel(id)).U64("prefixes", rib_.NumPrefixes()));
  Peer& p = peers_[id];
  std::uint64_t exported_count = 0;
  rib_.VisitBest([&](const Prefix& prefix, const bgp::Candidate& best) {
    const bgp::AttrSetId exported = ExportCandidate(p, prefix, best);
    if (exported != bgp::kInvalidAttrSetId) {
      ++exported_count;
      EnqueueOp(id, bgp::RouteOp{prefix, exported, false, cause});
    }
  });
  IRI_TRACE(tracer_, sched_.Now(), "redump_end",
            .Str("session", PeerLabel(id)).U64("exported", exported_count));
}

// -------------------------------------------------------------- CPU model

TimePoint Router::ChargeCpu(Duration cost) {
  const TimePoint now = sched_.Now();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += cost;
  // Backlog beyond one keepalive interval means outbound KEEPALIVEs are
  // consistently late — the precondition of the hold-timer cascade (§3).
  // Edge-triggered so a sustained storm traces as one high/drained pair.
  const Duration backlog = busy_until_ - now;
  const Duration starvation = Duration::Seconds(config_.hold_time_s / 3.0);
  if (!backlog_high_ && backlog > starvation) {
    backlog_high_ = true;
    if (metrics_.backlog_high_events) metrics_.backlog_high_events->Add(1);
    IRI_TRACE(tracer_, now, "backlog_high",
              .Str("router", config_.name).I64("backlog_ns", backlog.nanos()));
  } else if (backlog_high_ && backlog <= starvation) {
    backlog_high_ = false;
    IRI_TRACE(tracer_, now, "backlog_drained",
              .Str("router", config_.name).I64("backlog_ns", backlog.nanos()));
  }
  if (config_.crash_backlog > Duration() &&
      busy_until_ - now > config_.crash_backlog) {
    Crash();
  }
  return busy_until_;
}

void Router::Crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  if (metrics_.crashes) metrics_.crashes->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "router_crash",
            .Str("router", config_.name)
            .I64("backlog_ns", (busy_until_ - sched_.Now()).nanos()));
  // The router is gone: no NOTIFICATIONs, no teardown courtesy. Peers will
  // discover via their hold timers. All protocol state is lost.
  for (auto& p : peers_) {
    bgp::SessionFsm::Actions ignored;
    p.fsm.Stop(sched_.Now(), ignored);  // discard actions: a dead box is mute
    p.established = false;
    p.adj_rib_out.Clear();
    p.timer_armed = TimePoint::Max();  // cancel outstanding timer polls
  }
  // Drop every learned route; local (customer) routes survive on NVRAM.
  std::vector<bgp::PeerId> ids;
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) ids.push_back(id);
  for (bgp::PeerId id : ids) rib_.ClearPeer(id);
  sched_.After(config_.reboot_time, [this] { Reboot(); });
}

void Router::Reboot() {
  crashed_ = false;
  busy_until_ = sched_.Now();
  backlog_high_ = false;
  IRI_TRACE(tracer_, sched_.Now(), "router_recover",
            .Str("router", config_.name));
  for (bgp::PeerId id = 0; id < peers_.size(); ++id) {
    Peer& p = peers_[id];
    if (p.link != nullptr && p.link->up()) {
      // Re-initiate the BGP handshake on every surviving transport.
      OnTransportUp(id);
    }
  }
}

}  // namespace iri::sim
