// Good: this path (src/core/invariants.h) keeps the std::atomic exemption
// for the invariant-audit counters, though not a std::thread one. Zero
// findings expected.
#pragma once

#include <atomic>

namespace iri {
inline std::atomic<unsigned long> fx_audit_count{0};
inline unsigned long FxAuditCount() { return fx_audit_count.load(); }
}  // namespace iri
