// Bounded reuse of scratch buffers.
//
// The message path keeps its buffers (wire bytes, cause lists, packed ops)
// from one message to the next so the steady state allocates nothing. A
// rare burst — the bootstrap's full-table dumps — would otherwise leave its
// peak capacity in every such buffer for the rest of the run, so each
// reuse site bounds what it keeps.
#pragma once

#include <cstddef>

namespace iri {

// Empties `v`, keeping its capacity unless that exceeds `max_capacity`, in
// which case the storage is released. (Assigning `{}` would not release
// it: that picks the initializer-list overload, which keeps capacity.)
template <typename V>
void ClearRetaining(V& v, std::size_t max_capacity) {
  if (v.capacity() > max_capacity) {
    v = V();
  } else {
    v.clear();
  }
}

}  // namespace iri
