// Hash-consed AS-path and attribute-set tables (interning).
//
// At full paper scale (scale_denominator = 1: 42 k prefixes, millions of
// updates per simulated day) the simulator sees the same few thousand
// distinct AS paths and attribute sets over and over. Interning each
// distinct value once turns the hot comparisons — AS-path length and
// neighbor AS in the decision process, forwarding-tuple and exact-duplicate
// checks in the classifier — into integer compares against precomputed
// metadata, and turns per-update deep copies into id copies.
//
// Determinism argument (see DESIGN.md §12): ids are assigned in insertion
// order, so for a fixed update stream the (value → id) mapping is a pure
// function of the stream. The unordered lookup maps are only ever probed
// (find/emplace); nothing iterates them, so their bucket order can never
// reach a digest or any other output. Canonical values live in an Arena
// owned by the table: block addresses are stable for the table's lifetime,
// which is what lets entries hold plain pointers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/attributes.h"
#include "bgp/types.h"
#include "core/arena.h"
#include "core/invariants.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

// Handle into a PathAttributesTable. Same contract as AsPathId: equal ids
// ⟺ byte-equal attribute sets, table-local, insertion-ordered.
using AttrSetId = std::uint32_t;
inline constexpr AttrSetId kInvalidAttrSetId = 0xFFFFFFFF;

// Structural hashes (FNV-1a over the value's canonical fields). Process-local
// only — never emitted, so the constants can change freely.
std::size_t HashAsPath(const AsPath& path);
std::size_t HashAttributes(const PathAttributes& attrs);

// Interned AS paths with the decision-process metadata precomputed per
// distinct path: DecisionLength (ladder step 2) and FirstAsn (the MED
// comparability gate). One table per Rib, i.e. per partition — no sharing,
// no locks.
class AsPathTable {
 public:
  // Pre-size the probe table: a border router at paper scale sees a few
  // hundred to a few thousand distinct paths, and rehashing mid-run is pure
  // overhead (bucket order is inert either way). Small tables (a router's
  // exported sets) pass a small figure instead.
  explicit AsPathTable(std::size_t expected = 1024) {
    lookup_.reserve(expected);
  }
  AsPathTable(const AsPathTable&) = delete;
  AsPathTable& operator=(const AsPathTable&) = delete;

  // Returns the id for `path`, inserting a canonical copy on first sight.
  AsPathId Intern(const AsPath& path);

  const AsPath& Get(AsPathId id) const {
    IRI_ASSERT(id < entries_.size(), "AsPathId out of range");
    return *entries_[id].path;
  }
  std::uint32_t DecisionLength(AsPathId id) const {
    IRI_ASSERT(id < entries_.size(), "AsPathId out of range");
    return entries_[id].decision_length;
  }
  Asn FirstAsn(AsPathId id) const {
    IRI_ASSERT(id < entries_.size(), "AsPathId out of range");
    return entries_[id].first_asn;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t arena_bytes() const { return arena_.bytes_allocated(); }

 private:
  struct Entry {
    const AsPath* path;  // canonical copy, arena-owned
    std::uint32_t decision_length;
    Asn first_asn;
  };
  struct PtrHash {
    std::size_t operator()(const AsPath* p) const { return HashAsPath(*p); }
  };
  struct PtrEq {
    bool operator()(const AsPath* a, const AsPath* b) const { return *a == *b; }
  };

  std::vector<Entry> entries_;  // id-indexed, insertion order
  // Probed only (find/emplace) — never iterated, so bucket order is inert.
  std::unordered_map<const AsPath*, AsPathId, PtrHash, PtrEq> lookup_;
  core::Arena arena_{16 * 1024};
};

// Interned full attribute sets, for the classifier's per-route state. Each
// entry precomputes the forwarding tuple's non-prefix half (NEXT_HOP plus
// the interned AS path), so the paper's forwarding-instability vs.
// policy-fluctuation split becomes two integer compares.
class PathAttributesTable {
 public:
  explicit PathAttributesTable(std::size_t expected = 1024)
      : paths_(expected) {
    lookup_.reserve(expected);
  }
  PathAttributesTable(const PathAttributesTable&) = delete;
  PathAttributesTable& operator=(const PathAttributesTable&) = delete;

  AttrSetId Intern(const PathAttributes& attrs);

  const PathAttributes& Get(AttrSetId id) const {
    IRI_ASSERT(id < entries_.size(), "AttrSetId out of range");
    return *entries_[id].attrs;
  }
  AsPathId PathId(AttrSetId id) const {
    IRI_ASSERT(id < entries_.size(), "AttrSetId out of range");
    return entries_[id].path_id;
  }

  // attrs(a).ForwardingEquivalent(attrs(b)), as integer compares.
  bool ForwardingEquivalent(AttrSetId a, AttrSetId b) const {
    IRI_ASSERT(a < entries_.size() && b < entries_.size(),
               "AttrSetId out of range");
    return entries_[a].next_hop == entries_[b].next_hop &&
           entries_[a].path_id == entries_[b].path_id;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t NumDistinctPaths() const { return paths_.size(); }
  std::size_t arena_bytes() const {
    return arena_.bytes_allocated() + paths_.arena_bytes();
  }

 private:
  struct Entry {
    const PathAttributes* attrs;  // canonical copy, arena-owned
    IPv4Address next_hop;
    AsPathId path_id;
  };
  struct PtrHash {
    std::size_t operator()(const PathAttributes* p) const {
      return HashAttributes(*p);
    }
  };
  struct PtrEq {
    bool operator()(const PathAttributes* a, const PathAttributes* b) const {
      return *a == *b;
    }
  };

  std::vector<Entry> entries_;  // id-indexed, insertion order
  // Probed only (find/emplace) — never iterated, so bucket order is inert.
  std::unordered_map<const PathAttributes*, AttrSetId, PtrHash, PtrEq> lookup_;
  AsPathTable paths_;
  core::Arena arena_{16 * 1024};
};

}  // namespace iri::bgp
