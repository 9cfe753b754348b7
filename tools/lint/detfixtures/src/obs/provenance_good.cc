// Good: the same per-cause attribution tally with its slots in a dense
// vector indexed by cause id — ids are a dense allocation-ordered sequence
// (obs::ProvenanceContext mints 1, 2, 3, ...), so indexing id-1 sweeps
// causes in fixed order and the rollup is a pure function of the counts,
// the way obs::AttributionMatrix stores its CauseStats. Must produce zero
// findings (guards the aggregation-sink rule against false positives on
// id-indexed merges). The member is not named like provenance_bad.cc's: the
// stdlib fallback frontend keys its unordered-container table by name.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iri::obs {

class FxOrderedProvenanceTally {
 public:
  void Record(std::uint32_t cause_id, std::uint64_t updates) {
    if (cause_id == 0) return;  // null cause: unattributed
    if (slots_.size() < cause_id) slots_.resize(cause_id);
    slots_[cause_id - 1] += updates;
  }
  // Folds the per-cause tallies into `rollup`.
  void Merge(std::vector<std::uint64_t>& rollup) const;

 private:
  std::vector<std::uint64_t> slots_;
};

void FxOrderedProvenanceTally::Merge(
    std::vector<std::uint64_t>& rollup) const {
  for (const std::uint64_t n : slots_) {
    rollup.push_back(n);
  }
}

}  // namespace iri::obs
