// Bad: POSIX random(), rand()'s better-spread twin. Same problem: unseeded
// global state outside the ExchangeSubSeed/Rng::Fork streams.
//
// det-expect: rng-discipline

#include <cstdlib>

namespace iri::sim {

long FxDelayJitter() { return random() % 1000; }

}  // namespace iri::sim
