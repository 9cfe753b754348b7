// Bad: a header without `#pragma once`. Included twice, its definitions
// would collide; every first-party header opens its guard with the pragma.
// headers_tu.cc includes it exactly once, so the fixture still compiles.
//
// det-expect: pragma-once

namespace iri::bgp {
struct FxNaked {
  int n = 0;
};
}  // namespace iri::bgp
