// Good: the same rand() call as rand_bad.cc, accepted by an
// `iri-det: allow(<check>)` comment, either on the offending line or on a
// comment-only line just above it. Zero findings expected.

#include <cstdlib>

namespace iri::sim {

int FxAllowedDraw() { return rand(); }  // iri-det: allow(rng-discipline)

int FxAllowedDrawBelow() {
  // iri-det: allow(rng-discipline) -- suppresses the next line
  return rand();
}

}  // namespace iri::sim
