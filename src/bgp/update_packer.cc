#include "bgp/update_packer.h"

#include <algorithm>

#include "netbase/scratch.h"

namespace iri::bgp {
namespace {

// Messages close once their size estimate passes this bound (a margin
// under the 4096-byte maximum for the estimate's slack).
constexpr std::size_t kPackLimit = kMaxMessageSize - 64;
// Header plus the two length fields: the estimate of an empty UPDATE.
constexpr std::size_t kFixedEstimate = kHeaderSize + 4;
// Scratch kept across batches. A full-table dump packs tens of thousands
// of ops; keeping that capacity in every router for the rest of the run
// would cost more memory than the reallocation it saves.
constexpr std::size_t kRetainPrefixes = 1024;
constexpr std::size_t kRetainMessages = 64;
constexpr std::size_t kRetainCauses = 64;

}  // namespace

std::size_t UpdatePacker::AttrEstimate(AttrSetId id,
                                       const PathAttributesTable& sets) {
  if (&sets != estimates_for_) {  // a packer may be pointed at a new table
    attr_estimate_.clear();
    estimates_for_ = &sets;
  }
  if (id >= attr_estimate_.size()) attr_estimate_.resize(sets.size(), 0);
  std::uint32_t& est = attr_estimate_[id];
  if (est == 0) {
    est = static_cast<std::uint32_t>(EstimateAttributesSize(sets.Get(id)));
  }
  return est;
}

void UpdatePacker::ReleaseOversize() {
  ClearRetaining(withdrawn_, kRetainPrefixes);
  ClearRetaining(nlri_, kRetainPrefixes);
  ClearRetaining(op_msg_, kRetainPrefixes);
  ClearRetaining(msgs_, kRetainMessages);
  if (causes_.size() > kRetainMessages) causes_.resize(kRetainMessages);
}

void UpdatePacker::Pack(std::span<const RouteOp> ops,
                        const PathAttributesTable& sets) {
  ReleaseOversize();
  // Opens message k, recycling its cause slot.
  const auto open = [this](AttrSetId attrs) {
    const std::size_t k = msgs_.size();
    msgs_.push_back(Packed{});
    msgs_.back().attrs = attrs;
    if (k == causes_.size()) {
      causes_.emplace_back();
    } else {
      ClearRetaining(causes_[k], kRetainCauses);
    }
  };

  // Withdrawals first, packed densely (matches observed router behaviour:
  // the paper's multi-million-withdrawal days arrived as packed UPDATEs).
  // The cause sideband mirrors each message's withdrawn list op for op.
  bool withdrawals_open = false;
  for (const RouteOp& op : ops) {
    if (!op.IsWithdraw()) continue;
    if (!withdrawals_open) {
      open(kInvalidAttrSetId);
      msgs_.back().withdrawn_begin =
          static_cast<std::uint32_t>(withdrawn_.size());
      withdrawals_open = true;
    }
    withdrawn_.push_back(op.prefix);
    causes_[msgs_.size() - 1].push_back(op.cause);
    const std::uint32_t n = ++msgs_.back().withdrawn_count;
    if (kFixedEstimate + 5 * std::size_t{n} > kPackLimit) {
      withdrawals_open = false;
    }
  }

  // Announcements grouped by attribute set, in order of first appearance;
  // order within a message follows arrival order. Pass 1 assigns each op
  // its message and counts; pass 2 scatters prefixes and causes into each
  // message's contiguous range.
  const std::size_t first_group = msgs_.size();
  for (const RouteOp& op : ops) {
    if (op.IsWithdraw()) continue;
    const AttrSetId id = op.attrs;
    if (id >= open_msg_.size()) open_msg_.resize(std::size_t{id} + 1, 0);
    std::uint32_t m = open_msg_[id];
    if (m == 0) touched_.push_back(id);
    if (m == 0 || kFixedEstimate + 5 * std::size_t{msgs_[m - 1].nlri_count} +
                          AttrEstimate(id, sets) >=
                      kPackLimit) {
      open(id);
      m = static_cast<std::uint32_t>(msgs_.size());
      open_msg_[id] = m;
    }
    ++msgs_[m - 1].nlri_count;
    op_msg_.push_back(m - 1);
  }
  for (AttrSetId id : touched_) open_msg_[id] = 0;
  touched_.clear();

  std::uint32_t offset = 0;
  for (std::size_t k = first_group; k < msgs_.size(); ++k) {
    msgs_[k].nlri_begin = offset;
    offset += msgs_[k].nlri_count;
    msgs_[k].nlri_count = 0;  // refilled by the scatter below
  }
  nlri_.resize(offset);
  std::size_t j = 0;
  for (const RouteOp& op : ops) {
    if (op.IsWithdraw()) continue;
    const std::uint32_t k = op_msg_[j++];
    nlri_[msgs_[k].nlri_begin + msgs_[k].nlri_count++] = op.prefix;
    causes_[k].push_back(op.cause);
  }
}

void UpdatePacker::Encode(std::size_t m, const PathAttributesTable& sets,
                          ByteWriter& out) const {
  const AttrSetId id = msgs_[m].attrs;
  EncodeUpdate(withdrawn(m), id == kInvalidAttrSetId ? nullptr : &sets.Get(id),
               nlri(m), out);
}

UpdateMessage UpdatePacker::ToMessage(std::size_t m,
                                      const PathAttributesTable& sets) const {
  UpdateMessage msg;
  msg.withdrawn.assign(withdrawn(m).begin(), withdrawn(m).end());
  msg.nlri.assign(nlri(m).begin(), nlri(m).end());
  if (msgs_[m].attrs != kInvalidAttrSetId) {
    msg.attributes = sets.Get(msgs_[m].attrs);
  }
  return msg;
}

void OutboundQueue::Enqueue(TimePoint now, const RouteOp& op) {
  if (pending_.empty()) deadline_ = ComputeDeadline(now);
  auto [slot, inserted] = index_.TryEmplace(op.prefix);
  if (inserted) {
    *slot = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(op);
  } else {
    // Latest wins, keeping the original order slot; an announcement that
    // supersedes a queued withdrawal remembers it (see RouteOp).
    RouteOp& prior = pending_[*slot];
    const bool preceded =
        !op.IsWithdraw() && (prior.IsWithdraw() || prior.withdraw_preceded);
    prior = op;
    if (preceded) prior.withdraw_preceded = true;
  }
}

TimePoint OutboundQueue::ComputeDeadline(TimePoint now) {
  const std::int64_t interval = config_.interval.nanos();
  if (config_.discipline == TimerDiscipline::kUnjittered) {
    // Fixed phase: the next multiple of the interval strictly after `now`.
    // Every unjittered router flushes on the same global phase — the weak
    // coupling Floyd & Jacobson show leads to abrupt synchronization.
    const std::int64_t k = now.nanos() / interval + 1;
    return TimePoint::FromNanos(k * interval);
  }
  const double spread = 1.0 + config_.jitter * (2.0 * rng_.Uniform() - 1.0);
  return now + config_.interval * spread;
}

void OutboundQueue::Flush(TimePoint now, std::vector<RouteOp>& out) {
  out.clear();
  if (pending_.empty() || now < deadline_) return;
  deadline_ = TimePoint::Max();
  index_.Clear();
  out.swap(pending_);  // already in first-enqueue order
}

}  // namespace iri::bgp
