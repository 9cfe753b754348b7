#include "netbase/ipv4.h"

#include <charconv>
#include <ostream>

namespace iri {
namespace {

// Parses one decimal octet from the front of `text`, advancing it.
// Returns nullopt on empty input, non-digits, leading '+'/'-', or value > 255.
std::optional<std::uint8_t> ParseOctet(std::string_view& text) {
  unsigned value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return static_cast<std::uint8_t>(value);
}

}  // namespace

std::optional<IPv4Address> IPv4Address::Parse(std::string_view text) {
  std::uint32_t bits = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (text.empty() || text.front() != '.') return std::nullopt;
      text.remove_prefix(1);
    }
    auto octet = ParseOctet(text);
    if (!octet) return std::nullopt;
    bits = (bits << 8) | *octet;
  }
  if (!text.empty()) return std::nullopt;
  return IPv4Address(bits);
}

std::string IPv4Address::ToString() const {
  std::string out;
  out.reserve(15);
  for (int shift = 24; shift >= 0; shift -= 8) {
    if (shift != 24) out.push_back('.');
    out += std::to_string((bits_ >> shift) & 0xff);
  }
  return out;
}

std::optional<Prefix> Prefix::Parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto addr = IPv4Address::Parse(text.substr(0, slash));
  if (!addr) return std::nullopt;
  std::string_view len_text = text.substr(slash + 1);
  auto len = ParseOctet(len_text);
  if (!len || !len_text.empty() || *len > 32) return std::nullopt;
  return Prefix(*addr, *len);
}

std::string Prefix::ToString() const {
  return address().ToString() + "/" + std::to_string(length_);
}

std::ostream& operator<<(std::ostream& os, const Prefix& prefix) {
  return os << prefix.ToString();
}

}  // namespace iri
