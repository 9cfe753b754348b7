// Bad: a raw wall-clock read outside src/netbase/time.*. iri runs on
// simulated time; a wall-clock value anywhere in the model makes its output
// depend on when the run happened.
//
// det-expect: wall-clock-confinement

#include <ctime>

namespace iri::core {

long FxWallSeconds() { return static_cast<long>(time(nullptr)); }

}  // namespace iri::core
