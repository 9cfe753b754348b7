// Bad: a provenance attribution table that keeps its per-cause tallies in a
// std::unordered_map keyed by cause id and merges them by iterating the map.
// The iteration order is the hash layout, so the combined blast-radius
// rollup — which is what reaches the attribution digest section — depends on
// pointer/seed accidents instead of being a pure function of (seed, config).
// The aggregation-sink rule (`::Merge` is a sink root, the way
// obs::AttributionMatrix::Merge is) must catch it even though no
// Snapshot/Digest name appears here.
//
// det-expect: unordered-in-output

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace iri::obs {

class FxProvenanceTally {
 public:
  void Record(std::uint32_t cause_id, std::uint64_t updates) {
    per_cause_[cause_id] += updates;
  }
  // Folds the per-cause tallies into `rollup`.
  void Merge(std::vector<std::uint64_t>& rollup) const;

 private:
  std::unordered_map<std::uint32_t, std::uint64_t> per_cause_;
};

void FxProvenanceTally::Merge(std::vector<std::uint64_t>& rollup) const {
  for (const auto& kv : per_cause_) {
    rollup.push_back(kv.second);
  }
}

}  // namespace iri::obs
