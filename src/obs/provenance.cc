#include "obs/provenance.h"

#include <algorithm>

namespace iri::obs {

const char* ToString(CauseKind kind) {
  switch (kind) {
    case CauseKind::kNone: return "none";
    case CauseKind::kBootstrap: return "bootstrap";
    case CauseKind::kMultihoming: return "multihoming";
    case CauseKind::kCustomerFlap: return "customer_flap";
    case CauseKind::kFailover: return "failover";
    case CauseKind::kPathChange: return "path_change";
    case CauseKind::kCsuEpisode: return "csu_episode";
    case CauseKind::kOscillation: return "oscillation";
    case CauseKind::kPolicyFluctuation: return "policy_fluctuation";
    case CauseKind::kInternalReset: return "internal_reset";
    case CauseKind::kPathoSpray: return "patho_spray";
    case CauseKind::kMaintenance: return "maintenance";
    case CauseKind::kUpgrade: return "upgrade";
    case CauseKind::kSessionReset: return "session_reset";
    case CauseKind::kSessionRedump: return "session_redump";
    case CauseKind::kCount: break;
  }
  return "?";
}

#if defined(IRI_PROVENANCE_ENABLED) && IRI_PROVENANCE_ENABLED

CauseTag ProvenanceContext::Allocate(CauseKind kind, TimePoint now) {
  infos_.push_back(CauseInfo{kind, now});
  CauseTag tag;
  tag.id = static_cast<std::uint32_t>(infos_.size());
  tag.kind = static_cast<std::uint8_t>(kind);
  IRI_TRACE(tracer_, now, "cause_injected",
            .U64("id", tag.id).Str("kind", ToString(kind)));
  return tag;
}

void AttributionMatrix::Record(std::size_t cls, const CauseTag& tag,
                               TimePoint now, bool first_touch) {
  const auto kind = static_cast<std::size_t>(tag.kind);
  const std::size_t bucket =
      std::min<std::size_t>(tag.depth, kDepthBuckets - 1);
  matrix_[CellIndex(cls, kind, bucket)] += 1;
  if (tag.IsNull()) {
    ++unattributed_;
    return;
  }
  ++attributed_;
  if (tag.depth > depth_peak_) depth_peak_ = tag.depth;
  if (stats_.size() < tag.id) stats_.resize(tag.id);
  CauseStats& s = stats_[tag.id - 1];
  s.kind = tag.Kind();
  ++s.updates;
  if (first_touch) ++s.prefixes;
  if (tag.depth > s.max_depth) s.max_depth = tag.depth;
  if (now < s.first_seen) s.first_seen = now;
  if (now > s.last_seen) s.last_seen = now;
}

void AttributionMatrix::Merge(const AttributionMatrix& other) {
  for (std::size_t i = 0; i < kCells; ++i) matrix_[i] += other.matrix_[i];
  attributed_ += other.attributed_;
  unattributed_ += other.unattributed_;
  depth_peak_ = std::max(depth_peak_, other.depth_peak_);
  if (stats_.size() < other.stats_.size()) stats_.resize(other.stats_.size());
  for (std::size_t i = 0; i < other.stats_.size(); ++i) {
    const CauseStats& o = other.stats_[i];
    if (o.updates == 0) continue;
    CauseStats& s = stats_[i];
    s.kind = o.kind;
    s.updates += o.updates;
    s.prefixes += o.prefixes;
    s.max_depth = std::max(s.max_depth, o.max_depth);
    s.first_seen = std::min(s.first_seen, o.first_seen);
    s.last_seen = std::max(s.last_seen, o.last_seen);
  }
}

std::uint64_t AttributionMatrix::attributed() const { return attributed_; }
std::uint64_t AttributionMatrix::unattributed() const { return unattributed_; }
std::uint8_t AttributionMatrix::depth_peak() const { return depth_peak_; }

std::uint64_t AttributionMatrix::MatrixAt(std::size_t cls, std::size_t kind,
                                          std::size_t depth_bucket) const {
  return matrix_[CellIndex(cls, kind, depth_bucket)];
}

std::uint64_t AttributionMatrix::ClassTotal(std::size_t cls) const {
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kNumCauseKinds; ++k) {
    for (std::size_t d = 0; d < kDepthBuckets; ++d) {
      sum += matrix_[CellIndex(cls, k, d)];
    }
  }
  return sum;
}

std::uint64_t AttributionMatrix::ClassAttributed(std::size_t cls) const {
  std::uint64_t sum = ClassTotal(cls);
  for (std::size_t d = 0; d < kDepthBuckets; ++d) {
    sum -= matrix_[CellIndex(
        cls, static_cast<std::size_t>(CauseKind::kNone), d)];
  }
  return sum;
}

std::uint64_t AttributionMatrix::DepthBucketTotal(
    std::size_t depth_bucket) const {
  std::uint64_t sum = 0;
  for (std::size_t c = 0; c < kMaxClasses; ++c) {
    for (std::size_t k = 0; k < kNumCauseKinds; ++k) {
      sum += matrix_[CellIndex(c, k, depth_bucket)];
    }
  }
  return sum;
}

const std::vector<AttributionMatrix::CauseStats>&
AttributionMatrix::cause_stats() const {
  return stats_;
}

#endif  // IRI_PROVENANCE_ENABLED (compiled-out bodies are inline in the
        // header so hot-path call sites fold away entirely)

}  // namespace iri::obs
