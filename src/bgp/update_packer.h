// Outbound update batching — the "interval timer on BGP's update processing"
// at the heart of the paper's §4.2.
//
// Real routers do not transmit each route change immediately; they queue
// changes and flush them on a timer, packing many prefixes into few UPDATE
// messages. The paper identifies a vendor's *unjittered 30-second* flush
// timer as the probable source of the 30/60 s periodicity in Figure 8 and a
// contributor (with stateless BGP) to AADup/WWDup pathologies.
//
// Two timer disciplines are modeled:
//  - kUnjittered: flushes at fixed wall-phase multiples of the interval
//    (every router on the same phase — the self-synchronization substrate).
//  - kJittered: flushes interval*(1 ± jitter) after the first enqueued
//    change, per the route-dampening draft's recommendation.
//
// Ownership on this path (DESIGN.md §12): a queued op names its attribute
// set by interned id, the queue hands its ops over by swapping vectors, and
// the packer's output is spans into its own reused scratch, which the
// router encodes straight into one reused writer. No step copies an
// attribute set or builds an UpdateMessage.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bgp/intern.h"
#include "bgp/message.h"
#include "bgp/route.h"
#include "netbase/probe_map.h"
#include "netbase/rng.h"
#include "netbase/time.h"
#include "obs/provenance.h"

namespace iri::bgp {

// One net route change bound for a peer: announce or withdraw. The
// announced attribute set is an id into the sending router's table of
// exported sets (a PathAttributesTable), so an op is a few words — no
// attribute copy rides the queue. kInvalidAttrSetId means withdrawal.
struct RouteOp {
  Prefix prefix;
  AttrSetId attrs = kInvalidAttrSetId;
  // True when a withdrawal for this prefix was queued earlier in the same
  // flush window and later superseded by this announcement. A stateful
  // sender coalesces the pair away; the pathological stateless
  // implementation transmits "withdrawals for every explicitly and
  // implicitly withdrawn prefix" followed by the current route — the W,A
  // trains that put half of Figure 8's mass in the 30 s bin.
  bool withdraw_preceded = false;
  // Provenance sideband: the injected cause this op descends from. Rides the
  // queue slot under latest-wins coalescing (the surviving op's cause wins,
  // like its attributes) and is excluded from equality — two ops that would
  // put the same bytes on the wire compare equal whatever their ancestry.
  // Zero bytes when provenance is compiled out.
  [[no_unique_address]] obs::CauseTag cause{};

  bool IsWithdraw() const { return attrs == kInvalidAttrSetId; }

  friend bool operator==(const RouteOp& a, const RouteOp& b) {
    return a.prefix == b.prefix && a.attrs == b.attrs &&
           a.withdraw_preceded == b.withdraw_preceded;
  }
};

// Packs a batch of route ops into wire-legal UPDATE messages: withdrawals
// come first, packed densely and split once the size estimate passes
// kMaxMessageSize - 64; each announcement joins the first message with the
// same attribute set whose estimate is still below that bound (a new one
// otherwise), and messages follow in order of first appearance. The output
// lives in the packer's scratch — flat prefix arrays plus per-message
// (withdrawn, attribute id, NLRI, causes) — reused across flushes, so a
// steady-state Pack allocates nothing. Capacity beyond a small bound is
// released after a large batch (a full-table dump), so a router does not
// keep a bootstrap-sized scratch for the rest of the run.
class UpdatePacker {
 public:
  // Packs `ops`, whose announcement ids index `sets`. Replaces the previous
  // batch's output.
  void Pack(std::span<const RouteOp> ops, const PathAttributesTable& sets);

  std::size_t size() const { return msgs_.size(); }
  std::span<const Prefix> withdrawn(std::size_t m) const {
    return std::span<const Prefix>(withdrawn_).subspan(
        msgs_[m].withdrawn_begin, msgs_[m].withdrawn_count);
  }
  std::span<const Prefix> nlri(std::size_t m) const {
    return std::span<const Prefix>(nlri_).subspan(msgs_[m].nlri_begin,
                                                  msgs_[m].nlri_count);
  }
  // The announced set's id; kInvalidAttrSetId for a withdrawal-only message.
  AttrSetId attrs(std::size_t m) const { return msgs_[m].attrs; }
  // The message's cause sideband, aligned with its wire event order
  // (withdrawn prefixes, then NLRI) — the grouping reorders ops, so the
  // sideband is built here to stay aligned. Empty when compiled out.
  const obs::CauseVec& causes(std::size_t m) const { return causes_[m]; }

  // Appends message `m`'s wire bytes (header included) to `out`.
  void Encode(std::size_t m, const PathAttributesTable& sets,
              ByteWriter& out) const;

  // Message `m` as a decoded-form UpdateMessage (allocates; for tests and
  // diagnostics — the send path encodes straight from the scratch).
  UpdateMessage ToMessage(std::size_t m, const PathAttributesTable& sets) const;

 private:
  struct Packed {
    std::uint32_t withdrawn_begin = 0;
    std::uint32_t withdrawn_count = 0;
    std::uint32_t nlri_begin = 0;
    std::uint32_t nlri_count = 0;
    AttrSetId attrs = kInvalidAttrSetId;
  };

  // EstimateAttributesSize per attribute-set id, computed on first use
  // (0 = not yet; a real estimate is never 0).
  std::size_t AttrEstimate(AttrSetId id, const PathAttributesTable& sets);
  void ReleaseOversize();

  std::vector<Packed> msgs_;
  std::vector<obs::CauseVec> causes_;  // parallel to msgs_; slots recycled
  std::vector<Prefix> withdrawn_;      // every withdrawal, in op order
  std::vector<Prefix> nlri_;           // announcements, grouped by message
  // Per announce op, in op order: the message it joined.
  std::vector<std::uint32_t> op_msg_;
  // Per attribute-set id: the latest message carrying it (+1; 0 = none
  // this batch) — the only one that can still have room, since a set's
  // messages fill in order. Reset through touched_ after each batch.
  std::vector<std::uint32_t> open_msg_;
  std::vector<AttrSetId> touched_;
  std::vector<std::uint32_t> attr_estimate_;
  const PathAttributesTable* estimates_for_ = nullptr;
};

enum class TimerDiscipline : std::uint8_t { kUnjittered, kJittered };

struct PackerConfig {
  Duration interval = Duration::Seconds(30);
  TimerDiscipline discipline = TimerDiscipline::kUnjittered;
  double jitter = 0.25;  // kJittered: flush after interval*(1±jitter)
};

// Per-peer outbound queue. Latest-wins per prefix: an announce queued after
// a withdraw for the same prefix supersedes it within one flush window
// (this coalescing is what can turn real flaps into apparent silence, the
// "artificial route dampening" effect the paper describes).
class OutboundQueue {
 public:
  OutboundQueue(PackerConfig config, std::uint64_t rng_seed)
      : config_(config), rng_(rng_seed) {}

  // Queues a change; arms the flush deadline if the queue was empty.
  void Enqueue(TimePoint now, const RouteOp& op);

  // Time of the pending flush, or TimePoint::Max() when queue is empty.
  TimePoint NextFlush() const { return deadline_; }

  bool empty() const { return pending_.empty(); }
  std::size_t pending_ops() const { return pending_.size(); }

  // Drains the queue into `out` (cleared first) if the deadline has passed:
  // net ops in first-enqueued order. Leaves `out` empty when called before
  // the deadline. The two vectors swap, so each keeps a capacity for the
  // next window; the caller bounds what it retains.
  void Flush(TimePoint now, std::vector<RouteOp>& out);

 private:
  TimePoint ComputeDeadline(TimePoint now);

  PackerConfig config_;
  Rng rng_;
  // Net ops in first-enqueue order: latest-wins updates overwrite their
  // original slot, so the vector is already flush-ordered — no sequence
  // numbers, no sort, no per-op tree node. index_ dedups by prefix; the
  // flat ProbeMap is probed only by construction (no iteration API), so its
  // slot order cannot reach any output.
  std::vector<RouteOp> pending_;
  ProbeMap<Prefix, std::uint32_t> index_;
  TimePoint deadline_ = TimePoint::Max();
};

}  // namespace iri::bgp
