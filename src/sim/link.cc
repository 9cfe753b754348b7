#include "sim/link.h"

#include "netbase/scratch.h"

namespace iri::sim {

void Link::AttachObservability(obs::Registry* registry, obs::Tracer* tracer,
                               std::string name) {
  name_ = std::move(name);
  tracer_ = tracer;
  if (registry == nullptr) {
    fails_ = restores_ = messages_metric_ = bytes_metric_ = nullptr;
    return;
  }
  fails_ = &registry->GetCounter("link.fails");
  restores_ = &registry->GetCounter("link.restores");
  messages_metric_ = &registry->GetCounter("link.messages");
  bytes_metric_ = &registry->GetCounter("link.bytes");
}

void Link::Restore() {
  if (up_) return;
  up_ = true;
  if (prov_ != nullptr) transition_cause_ = prov_->Current();
  if (restores_) restores_->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "link_restore", .Str("link", name_));
  if (a_.endpoint) a_.endpoint->OnTransportUp(a_.peer_id);
  if (b_.endpoint) b_.endpoint->OnTransportUp(b_.peer_id);
}

void Link::Fail() {
  if (!up_) return;
  up_ = false;
  ++epoch_;  // orphan anything still in flight
  if (prov_ != nullptr) transition_cause_ = prov_->Current();
  if (fails_) fails_->Add(1);
  IRI_TRACE(tracer_, sched_.Now(), "link_fail",
            .Str("link", name_).U64("epoch", epoch_));
  if (a_.endpoint) a_.endpoint->OnTransportDown(a_.peer_id);
  if (b_.endpoint) b_.endpoint->OnTransportDown(b_.peer_id);
}

namespace {

// Buffers kept for reuse after a delivery. The bootstrap burst (full-table
// dumps of 4 KiB UPDATEs) would otherwise pin its peak in every slot for
// the rest of the run; steady-state messages fit well under these.
constexpr std::size_t kRetainBytes = 1024;
constexpr std::size_t kRetainCauses = 64;
constexpr std::size_t kRetainSlots = 64;

}  // namespace

void Link::Send(const LinkEndpoint* from, std::span<const std::uint8_t> bytes,
                const obs::CauseVec& causes) {
  if (!up_) return;
  const int dir = from == a_.endpoint ? 0 : 1;
  const Side& dst = dir == 0 ? b_ : a_;
  if (dst.endpoint == nullptr) return;
  ++messages_carried_;
  bytes_carried_ += bytes.size();
  if (messages_metric_) {
    messages_metric_->Add(1);
    bytes_metric_->Add(bytes.size());
  }
  Direction& d = dirs_[dir];
  if (d.count == d.ring.size()) {
    // Full: grow, unrolling the ring so the oldest message sits at slot 0.
    std::vector<InFlight> grown(d.ring.empty() ? 4 : 2 * d.ring.size());
    for (std::size_t i = 0; i < d.count; ++i) {
      grown[i] = std::move(d.ring[(d.head + i) % d.ring.size()]);
    }
    d.ring = std::move(grown);
    d.head = 0;
  }
  InFlight& slot = d.ring[(d.head + d.count) % d.ring.size()];
  ++d.count;
  slot.epoch = epoch_;
  slot.bytes.assign(bytes.begin(), bytes.end());
  slot.causes = causes;
  // The task names only the direction (16 bytes: fits std::function's
  // inline buffer); the message it delivers is the FIFO's oldest.
  sched_.After(latency_, [this, dir] { Deliver(dir); });
}

void Link::Deliver(int dir) {
  Direction& d = dirs_[dir];
  InFlight& slot = d.ring[d.head];
  std::swap(slot, delivering_);
  d.head = (d.head + 1) % d.ring.size();
  --d.count;
  if (d.count == 0 && d.ring.size() > kRetainSlots) {
    d.ring.resize(kRetainSlots);  // a burst is over: drop its extra slots
    d.ring.shrink_to_fit();
    d.head = 0;
  }
  if (delivering_.epoch == epoch_ && up_) {  // else carrier dropped in flight
    const Side& dst = dir == 0 ? b_ : a_;
    dst.endpoint->OnWireData(dst.peer_id, delivering_.bytes,
                             delivering_.causes);
  }
  ClearRetaining(delivering_.bytes, kRetainBytes);
  ClearRetaining(delivering_.causes, kRetainCauses);
}

std::size_t Link::buffer_bytes(const LinkEndpoint* from) const {
  std::size_t total = 0;
  for (const InFlight& f : dirs_[from == a_.endpoint ? 0 : 1].ring) {
    total += f.bytes.capacity();
  }
  return total;
}

void LineFailureProcess::Start() { ScheduleFailure(); }

void LineFailureProcess::ScheduleFailure() {
  const double m = rate_multiplier_ <= 0 ? 1e-6 : rate_multiplier_;
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_time_to_failure.ToSeconds() / m));
  sched_.After(wait, [this] {
    if (link_.up()) {
      link_.Fail();
      ++failures_;
    }
    ScheduleRepair();
  });
}

void LineFailureProcess::ScheduleRepair() {
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_time_to_repair.ToSeconds()));
  sched_.After(wait, [this] {
    link_.Restore();
    ScheduleFailure();
  });
}

void CsuOscillator::Start() { ScheduleEpisode(); }

void CsuOscillator::ScheduleEpisode() {
  const Duration wait =
      Duration::Seconds(rng_.Exponential(params_.mean_episode_gap.ToSeconds()));
  sched_.After(wait, [this] {
    ++episodes_;
    Beat(sched_.Now() + params_.episode_length);
  });
}

void CsuOscillator::Beat(TimePoint episode_end) {
  if (sched_.Now() >= episode_end) {
    link_.Restore();  // episode over; make sure the line is back up
    ScheduleEpisode();
    return;
  }
  ++beats_;
  link_.Fail();
  sched_.After(params_.carrier_loss, [this] { link_.Restore(); });
  // Next beat: near-constant period with a small wobble (clock drift moves
  // slowly, so successive beats stay phase-coherent).
  const double wobble =
      1.0 + params_.period_wobble * (2.0 * rng_.Uniform() - 1.0);
  sched_.After(params_.beat_period * wobble,
               [this, episode_end] { Beat(episode_end); });
}

}  // namespace iri::sim
