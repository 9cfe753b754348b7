// Translation unit for the exempt core/invariants.h fixture. It includes the
// header by its same-directory name, so the compiler takes this tree's copy
// rather than the repo's own src/core/invariants.h. Zero findings expected.

#include "invariants.h"

namespace iri::core {

unsigned long FxAudit() { return FxAuditCount(); }

}  // namespace iri::core
