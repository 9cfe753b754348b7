// Translation unit that pulls the header-only fixtures into the model
// (headers are only analyzed when some TU reaches them). The findings
// belong to guard_bad.h; this file itself is clean.

#include "bgp/guard_bad.h"
#include "bgp/text_good.h"

namespace iri::bgp {

int FxUseHeaders() {
  FxNaked naked;
  return naked.n + static_cast<int>(*FxRngAdvice());
}

}  // namespace iri::bgp
