// Bad: the C library's rand(). Its sequence differs between libcs, and its
// hidden global state is shared by every caller in the process.
//
// det-expect: rng-discipline

#include <cstdlib>

namespace iri::sim {

int FxCoinFlip() { return rand() % 2; }

}  // namespace iri::sim
