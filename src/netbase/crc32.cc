#include "netbase/crc32.h"

#include <array>
#include <cstring>

namespace iri {
namespace {

// Slice-by-8: eight derived tables let the inner loop fold 8 bytes per
// iteration (one 64-bit load, eight independent table lookups) instead of
// running the byte-serial carry chain. Table k holds the CRC of a byte
// followed by k zero bytes, so the eight lookups combine with plain XOR.
// Identical output to the byte-at-a-time form for every input — the MRT
// golden digests and the roundtrip fuzz suite pin this.
constexpr std::array<std::array<std::uint32_t, 256>, 8> MakeTables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = t[0][i];
    for (std::size_t k = 1; k < 8; ++k) {
      c = t[0][c & 0xff] ^ (c >> 8);
      t[k][i] = c;
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

constexpr std::uint32_t kPoly = 0xEDB88320u;

// a·b mod P in the reflected representation (bit 31 is x^0), as in zlib.
constexpr std::uint32_t MultModP(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if (a & m) {
      product ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

// kX2n[k] = x^(2^k) mod P, so x^n is a product of the entries for n's bits.
constexpr std::array<std::uint32_t, 32> MakeX2nTable() {
  std::array<std::uint32_t, 32> t{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& entry : t) {
    entry = p;
    p = MultModP(p, p);
  }
  return t;
}

constexpr auto kX2n = MakeX2nTable();

// x^(n·2^k) mod P.
std::uint32_t X2nModP(std::uint64_t n, unsigned k) {
  std::uint32_t p = 1u << 31;  // x^0
  for (; n != 0; n >>= 1, ++k) {
    if (n & 1) p = MultModP(kX2n[k & 31], p);
  }
  return p;
}

}  // namespace

std::uint32_t Crc32Update(std::uint32_t crc,
                          std::span<const std::uint8_t> data) {
  crc = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    // memcpy keeps the 8-byte load alignment-safe; the byte-swap on
    // big-endian hosts makes byte j of the stream always land in table 7-j.
    std::uint64_t chunk;
    std::memcpy(&chunk, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    chunk = __builtin_bswap64(chunk);
#endif
    chunk ^= crc;
    crc = kTables[7][chunk & 0xff] ^ kTables[6][(chunk >> 8) & 0xff] ^
          kTables[5][(chunk >> 16) & 0xff] ^ kTables[4][(chunk >> 24) & 0xff] ^
          kTables[3][(chunk >> 32) & 0xff] ^ kTables[2][(chunk >> 40) & 0xff] ^
          kTables[1][(chunk >> 48) & 0xff] ^ kTables[0][chunk >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  return Crc32Update(0, data);
}

std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b) {
  // Shift by 8·len_b bits: n = len_b counted in units of 2^3.
  return MultModP(X2nModP(len_b, 3), crc_a) ^ crc_b;
}

}  // namespace iri
