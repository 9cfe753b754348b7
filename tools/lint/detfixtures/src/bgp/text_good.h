// Good: rand() named only inside this comment and a string literal. Both
// frontends must see past comments and literals. It also includes
// core/invariants.h, the sanctioned upward include for layers above netbase.
// Zero findings expected.
#pragma once

#include "core/invariants.h"

namespace iri::bgp {
inline const char* FxRngAdvice() { return "never call rand() here"; }
}  // namespace iri::bgp
