// Network-order byte buffer reader/writer.
//
// All BGP wire encoding (RFC 1163 / RFC 4271 framing) and the MRT log format
// go through these two classes so endianness handling lives in one place.
// The reader is non-owning and fails soft: any out-of-bounds read sets a
// sticky error flag and returns zeros, so codecs can decode an entire message
// and check `ok()` once at the end (the pattern BGP codecs in this repo use).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace iri {

// Appends big-endian (network order) integers and raw bytes to a growable
// buffer.
class ByteWriter {
 public:
  // Pre-size the buffer when the caller can bound the message size —
  // without it a typical BGP UPDATE grows through 3-4 reallocations.
  void Reserve(std::size_t n) { buf_.reserve(n); }

  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void U32(std::uint32_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 24));
    buf_.push_back(static_cast<std::uint8_t>(v >> 16));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void U64(std::uint64_t v) {
    U32(static_cast<std::uint32_t>(v >> 32));
    U32(static_cast<std::uint32_t>(v));
  }
  void Bytes(std::span<const std::uint8_t> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  // Overwrites a previously written big-endian u16 at `offset`; used to
  // back-patch length fields after a variable-size body is known.
  void PatchU16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  // Empties the buffer, keeping its capacity (a reused per-router writer).
  void Clear() { buf_.clear(); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> Take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Reads big-endian integers from a non-owned span. Out-of-bounds reads set a
// sticky error and yield zero; callers check ok() after decoding.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t U8() {
    if (!Require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t U16() {
    if (!Require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t U32() {
    if (!Require(4)) return 0;
    std::uint32_t v = (std::uint32_t{data_[pos_]} << 24) |
                      (std::uint32_t{data_[pos_ + 1]} << 16) |
                      (std::uint32_t{data_[pos_ + 2]} << 8) |
                      std::uint32_t{data_[pos_ + 3]};
    pos_ += 4;
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t hi = U32();
    return (hi << 32) | U32();
  }

  // Returns a view of the next `n` bytes, or an empty span on underflow.
  std::span<const std::uint8_t> Bytes(std::size_t n) {
    if (!Require(n)) return {};
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  void Skip(std::size_t n) {
    if (Require(n)) pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool ok() const { return ok_; }

  // Explicitly poison the reader; codecs use this to reject semantically
  // invalid input (bad marker, bad type) through the same error path.
  void MarkBad() { ok_ = false; }

 private:
  bool Require(std::size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace iri
