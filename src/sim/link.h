// Point-to-point link model connecting two router endpoints.
//
// Links carry encoded BGP messages (real wire bytes — every hop exercises
// the codec) with a fixed propagation latency. Because the latency is
// fixed, each direction delivers in send order, so a message in flight is
// held in a per-direction FIFO of recycled buffers and its delivery task
// only names the direction: the sender's bytes are copied once, into a
// buffer that survives for the next message, and the receiver reads them
// through a span. A link can be failed and
// restored by scenario code, by the leased-line failure process, or by the
// CSU clock-drift oscillator (§4.2's "misconfigured CSUs ... cause the line
// to oscillate"): router interface cards are "sensitive to millisecond loss
// of line carrier", so even a brief carrier drop takes the BGP transport
// down with it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netbase/rng.h"
#include "netbase/time.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "sim/scheduler.h"

namespace iri::sim {

// Implemented by Router. Links call these to deliver transport events.
class LinkEndpoint {
 public:
  virtual ~LinkEndpoint() = default;
  virtual void OnTransportUp(std::uint32_t local_peer_id) = 0;
  virtual void OnTransportDown(std::uint32_t local_peer_id) = 0;
  // `bytes` and `causes` view link-owned storage that is valid only for the
  // duration of the call. `causes` is the provenance sideband for the
  // message's events (withdrawn then NLRI order); empty when the sender
  // attached none.
  virtual void OnWireData(std::uint32_t local_peer_id,
                          std::span<const std::uint8_t> bytes,
                          const obs::CauseVec& causes) = 0;
  // Convenience for callers without a sideband (tests, manual injection).
  void OnWireData(std::uint32_t local_peer_id,
                  std::span<const std::uint8_t> bytes) {
    OnWireData(local_peer_id, bytes, obs::CauseVec{});
  }
};

class Link {
 public:
  Link(Scheduler& sched, Duration latency) : sched_(sched), latency_(latency) {}

  // Wires up side A/B. `peer_id` is the identifier the endpoint uses for
  // this adjacency (each router numbers its own peers).
  void AttachA(LinkEndpoint* ep, std::uint32_t peer_id) { a_ = {ep, peer_id}; }
  void AttachB(LinkEndpoint* ep, std::uint32_t peer_id) { b_ = {ep, peer_id}; }

  // Attaches metrics (link.* counters, shared across all links on the
  // registry) and fail/restore trace events tagged with `name`. Either
  // pointer may be null.
  void AttachObservability(obs::Registry* registry, obs::Tracer* tracer,
                           std::string name);

  // Attaches the partition's provenance context: Fail/Restore capture the
  // ambient cause active at the transition, so session events the FSM
  // derives from this transport (downs, re-establishment dumps) can inherit
  // it. Null detaches.
  void SetProvenance(obs::ProvenanceContext* prov) { prov_ = prov; }

  // The cause captured at the most recent Fail/Restore (null when the
  // transition happened outside any cause scope, e.g. bootstrap).
  obs::CauseTag transition_cause() const { return transition_cause_; }

  bool up() const { return up_; }
  std::uint64_t messages_carried() const { return messages_carried_; }
  std::uint64_t bytes_carried() const { return bytes_carried_; }

  // Brings the link (and transport) up; notifies both endpoints.
  void Restore();

  // Takes the link down; in-flight data is lost, endpoints are notified.
  void Fail();

  // Sends bytes from endpoint `from` to the other side, delivered after the
  // propagation latency if the link is still up at delivery time (a fail
  // between send and delivery drops the data, as TCP segments in flight are
  // lost when carrier drops). `causes` rides in the delivery (a sideband
  // next to the wire bytes, never on them — MRT logs are unchanged). Both
  // are copied; the caller's storage is free again on return.
  void Send(const LinkEndpoint* from, std::span<const std::uint8_t> bytes,
            const obs::CauseVec& causes = {});

  // Messages sent in the direction away from `from` and not yet delivered
  // or dropped.
  std::size_t in_flight(const LinkEndpoint* from) const {
    return dirs_[from == a_.endpoint ? 0 : 1].count;
  }
  // Buffer slots the direction away from `from` currently holds (in flight
  // plus recycled), and the storage those buffers hold, in bytes.
  std::size_t buffer_slots(const LinkEndpoint* from) const {
    return dirs_[from == a_.endpoint ? 0 : 1].ring.size();
  }
  std::size_t buffer_bytes(const LinkEndpoint* from) const;

 private:
  struct Side {
    LinkEndpoint* endpoint = nullptr;
    std::uint32_t peer_id = 0;
  };
  // One message in flight: the epoch it was sent in plus its bytes and
  // cause tags, in buffers recycled from message to message.
  struct InFlight {
    std::uint64_t epoch = 0;
    std::vector<std::uint8_t> bytes;
    obs::CauseVec causes;
  };
  // A ring of InFlight slots in send order (delivery order, since the
  // latency is fixed). dirs_[0] carries A→B, dirs_[1] B→A.
  struct Direction {
    std::vector<InFlight> ring;
    std::size_t head = 0;
    std::size_t count = 0;
  };

  // Delivers (or, after a Fail, drops) the oldest message in dirs_[dir].
  void Deliver(int dir);

  Scheduler& sched_;
  Duration latency_;
  Side a_, b_;
  Direction dirs_[2];
  // The message being delivered, swapped out of its ring slot so a send
  // made during delivery can grow the ring without moving it.
  InFlight delivering_;
  bool up_ = false;
  std::uint64_t epoch_ = 0;  // bumped on every Fail; stale deliveries dropped
  std::uint64_t messages_carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;
  obs::ProvenanceContext* prov_ = nullptr;
  [[no_unique_address]] obs::CauseTag transition_cause_;
  obs::Counter* fails_ = nullptr;
  obs::Counter* restores_ = nullptr;
  obs::Counter* messages_metric_ = nullptr;
  obs::Counter* bytes_metric_ = nullptr;
};

// Poisson leased-line failure process: exponentially distributed time to
// failure and time to repair. Drives Fail/Restore on the link forever.
// The rate can be modulated by scenario code (diurnal congestion raises the
// effective failure rate — the paper's usage/instability correlation).
class LineFailureProcess {
 public:
  struct Params {
    Duration mean_time_to_failure = Duration::Hours(24 * 14);
    Duration mean_time_to_repair = Duration::Minutes(8);
  };

  LineFailureProcess(Scheduler& sched, Link& link, Params params,
                     std::uint64_t seed)
      : sched_(sched), link_(link), params_(params), rng_(seed) {}

  // Starts the process (first failure scheduled from now).
  void Start();

  // Rate multiplier >= 0; 1.0 = nominal. Sampled when each next failure is
  // scheduled, so scenario code can steer it over time.
  void SetRateMultiplier(double m) { rate_multiplier_ = m; }
  double rate_multiplier() const { return rate_multiplier_; }

  std::uint64_t failures() const { return failures_; }

 private:
  void ScheduleFailure();
  void ScheduleRepair();

  Scheduler& sched_;
  Link& link_;
  Params params_;
  Rng rng_;
  double rate_multiplier_ = 1.0;
  std::uint64_t failures_ = 0;
};

// CSU clock-drift oscillator: while an episode is active the line flaps with
// a beat period derived from the clock drift; episodes recur. Periods are
// near-constant (clocks drift slowly), producing the periodic W/A update
// trains the paper suspects behind some of the 30 s structure.
class CsuOscillator {
 public:
  struct Params {
    Duration beat_period = Duration::Seconds(30);  // line drops every beat
    Duration carrier_loss = Duration::Millis(800); // how long carrier drops
    Duration episode_length = Duration::Minutes(3);
    Duration mean_episode_gap = Duration::Hours(6);
    double period_wobble = 0.02;  // ±2% beat-to-beat variation
  };

  CsuOscillator(Scheduler& sched, Link& link, Params params,
                std::uint64_t seed)
      : sched_(sched), link_(link), params_(params), rng_(seed) {}

  void Start();

  std::uint64_t episodes() const { return episodes_; }
  std::uint64_t beats() const { return beats_; }

 private:
  void ScheduleEpisode();
  void Beat(TimePoint episode_end);

  Scheduler& sched_;
  Link& link_;
  Params params_;
  Rng rng_;
  std::uint64_t episodes_ = 0;
  std::uint64_t beats_ = 0;
};

}  // namespace iri::sim
