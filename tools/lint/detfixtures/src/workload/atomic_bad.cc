// Bad: a std::atomic outside src/sim/parallel.cc and core/invariants.h,
// with no thread in sight. Shared mutable state is what breaks bit-for-bit
// reproducibility, so the atomic alone is flagged.
//
// det-expect: thread-confinement

#include <atomic>

namespace iri::workload {

std::atomic<int> fx_shared_counter{0};

int FxBump() { return fx_shared_counter.fetch_add(1) + 1; }

}  // namespace iri::workload
