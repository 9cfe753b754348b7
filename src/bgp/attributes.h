// BGP path attributes and their wire codec (RFC 1163 / RFC 4271 format).
//
// The paper's taxonomy hinges on the distinction between the forwarding
// tuple (Prefix, NEXT_HOP, AS_PATH) and "the other attributes" (MED,
// LOCAL_PREF, communities, ...): changes to the former are forwarding
// instability, changes confined to the latter are policy fluctuation.
// PathAttributes therefore exposes ForwardingEquivalent() alongside full
// equality.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/types.h"
#include "netbase/bytes.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

// Attribute type codes actually used in the measurement period.
enum class AttrType : std::uint8_t {
  kOrigin = 1,
  kAsPath = 2,
  kNextHop = 3,
  kMultiExitDisc = 4,
  kLocalPref = 5,
  kAtomicAggregate = 6,
  kAggregator = 7,
  kCommunity = 8,
};

// AGGREGATOR attribute payload: who formed the aggregate.
struct Aggregator {
  Asn asn = 0;
  IPv4Address router_id;

  friend bool operator==(const Aggregator&, const Aggregator&) = default;
  friend auto operator<=>(const Aggregator&, const Aggregator&) = default;
};

// The decoded attribute set carried by a BGP UPDATE. Mandatory well-known
// attributes (ORIGIN, AS_PATH, NEXT_HOP) are plain members; optional ones
// are std::optional / vector.
struct PathAttributes {
  Origin origin = Origin::kIgp;
  AsPath as_path;
  IPv4Address next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<Aggregator> aggregator;
  std::vector<Community> communities;  // kept sorted by the codec

  // True when the (NEXT_HOP, AS_PATH) pair matches: together with the prefix
  // this is the paper's forwarding tuple. Two announcements that are
  // ForwardingEquivalent but differ elsewhere are policy fluctuation;
  // two identical announcements are the AADup pathology.
  bool ForwardingEquivalent(const PathAttributes& other) const {
    return next_hop == other.next_hop && as_path == other.as_path;
  }

  friend bool operator==(const PathAttributes&, const PathAttributes&) = default;

  // Restores the default-constructed state while keeping the communities
  // and AS-path buffers' capacity — decode-scratch support for the router's
  // receive path, which reuses one PathAttributes across every inbound
  // UPDATE. The path is left in place: DecodeAttributesInto overwrites it
  // (or empties it when the block carries no AS_PATH).
  void ResetForDecode() {
    origin = Origin::kIgp;
    next_hop = IPv4Address{};
    med.reset();
    local_pref.reset();
    atomic_aggregate = false;
    aggregator.reset();
    communities.clear();
  }

  std::string ToString() const;
};

// Serializes the attribute set in canonical wire form (ascending type code,
// communities sorted). Returns the raw "Path Attributes" field of an UPDATE.
void EncodeAttributes(const PathAttributes& attrs, ByteWriter& out);

// Decodes a Path Attributes field. On malformed input poisons `in` and
// returns a partially-filled struct (callers must check in.ok()).
PathAttributes DecodeAttributes(ByteReader& in, std::size_t total_len);

// In-place variant: decodes into `attrs`, which the caller must have reset
// (ResetForDecode or fresh). Reuses the communities and AS-path buffers.
void DecodeAttributesInto(ByteReader& in, std::size_t total_len,
                          PathAttributes& attrs);

}  // namespace iri::bgp
