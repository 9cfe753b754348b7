// CRC-32 (IEEE 802.3 polynomial, reflected) used to protect MRT log records.
#pragma once

#include <cstdint>
#include <span>

namespace iri {

// One-shot CRC over `data`. Equivalent to Crc32Update(0xFFFFFFFF^..., ...)
// with the standard pre/post conditioning.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

// Streaming form: fold more data into a running crc started at 0.
std::uint32_t Crc32Update(std::uint32_t crc, std::span<const std::uint8_t> data);

// CRC of A‖B from crc_a = Crc32(A), crc_b = Crc32(B) and len_b = |B|,
// without the bytes: crc_a shifted past len_b zero bytes (a multiply by
// x^(8·len_b) mod P, O(log len_b)), XORed with crc_b. Lets per-partition
// digests combine in fixed order after each partition dropped its bytes.
std::uint32_t Crc32Combine(std::uint32_t crc_a, std::uint32_t crc_b,
                           std::uint64_t len_b);

}  // namespace iri
