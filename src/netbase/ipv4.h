// IPv4 address and CIDR prefix value types.
//
// These are the fundamental identifiers threaded through the whole library:
// BGP NLRI entries, routing-table keys, topology allocation, and the
// classifier's (Prefix, NextHop, ASPATH) tuples all use iri::Prefix.
//
// Both types are trivially copyable value types with total ordering so they
// can key std::map/std::set and be hashed into unordered containers.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace iri {

// A single IPv4 address, stored host-order for arithmetic convenience.
class IPv4Address {
 public:
  constexpr IPv4Address() = default;
  constexpr explicit IPv4Address(std::uint32_t host_order_bits)
      : bits_(host_order_bits) {}
  constexpr IPv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                        std::uint8_t d)
      : bits_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
              (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  // Parses dotted-quad notation ("192.42.113.7"). Rejects out-of-range
  // octets, missing octets, and trailing garbage.
  static std::optional<IPv4Address> Parse(std::string_view text);

  constexpr std::uint32_t bits() const { return bits_; }
  std::string ToString() const;

  friend constexpr auto operator<=>(IPv4Address, IPv4Address) = default;

 private:
  std::uint32_t bits_ = 0;
};

// A CIDR prefix: an address and a mask length in [0, 32]. The host bits
// below the mask are always kept zero (canonical form), which makes equality
// meaningful and lets the radix trie treat the bit pattern as the key.
class Prefix {
 public:
  constexpr Prefix() = default;

  // Canonicalizes: masks the address down to `length` bits.
  constexpr Prefix(IPv4Address addr, std::uint8_t length)
      : bits_(length == 0 ? 0 : (addr.bits() & (~std::uint32_t{0} << (32 - length)))),
        length_(length) {}

  // Parses "a.b.c.d/len". Rejects len > 32 and non-canonical host bits are
  // masked away (mirroring router behaviour, which accepts and canonicalizes).
  static std::optional<Prefix> Parse(std::string_view text);

  constexpr IPv4Address address() const { return IPv4Address(bits_); }
  constexpr std::uint32_t bits() const { return bits_; }
  constexpr std::uint8_t length() const { return length_; }

  // True if `addr` falls inside this prefix.
  constexpr bool Contains(IPv4Address addr) const {
    if (length_ == 0) return true;
    const std::uint32_t mask = ~std::uint32_t{0} << (32 - length_);
    return (addr.bits() & mask) == bits_;
  }

  // True if `other` is equal to or more specific than this prefix.
  constexpr bool Covers(const Prefix& other) const {
    return other.length_ >= length_ && Contains(other.address());
  }

  // The two halves of this prefix (one bit longer). Undefined for /32.
  constexpr Prefix LowerHalf() const {
    return Prefix(IPv4Address(bits_), static_cast<std::uint8_t>(length_ + 1));
  }
  constexpr Prefix UpperHalf() const {
    const std::uint32_t half = std::uint32_t{1} << (31 - length_);
    return Prefix(IPv4Address(bits_ | half),
                  static_cast<std::uint8_t>(length_ + 1));
  }

  // The immediate supernet (one bit shorter). Undefined for /0.
  constexpr Prefix Parent() const {
    return Prefix(IPv4Address(bits_), static_cast<std::uint8_t>(length_ - 1));
  }

  // Extracts bit `i` (0 = most significant) of the address.
  constexpr bool Bit(std::uint8_t i) const {
    return (bits_ >> (31 - i)) & 1u;
  }

  std::string ToString() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  std::uint32_t bits_ = 0;
  std::uint8_t length_ = 0;
};

// Streams ToString() ("11.0.0.0/8"). Also what gtest prints for a Prefix in
// a failed assertion, instead of the object's raw bytes (padding included).
std::ostream& operator<<(std::ostream& os, const Prefix& prefix);

}  // namespace iri

template <>
struct std::hash<iri::IPv4Address> {
  std::size_t operator()(iri::IPv4Address a) const noexcept {
    // Finalizer from SplitMix64: cheap and well-mixed for table keys.
    std::uint64_t x = a.bits();
    x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27; x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};

template <>
struct std::hash<iri::Prefix> {
  std::size_t operator()(const iri::Prefix& p) const noexcept {
    std::uint64_t x = (std::uint64_t{p.bits()} << 8) | p.length();
    x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27; x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<std::size_t>(x);
  }
};
