#include "bgp/message.h"

#include <algorithm>

namespace iri::bgp {
namespace {

// All-ones marker required by RFC 1163 (pre-authentication era).
constexpr std::uint8_t kMarker[16] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                      0xFF, 0xFF, 0xFF, 0xFF};

// Writes marker, a length placeholder and the type; returns the offset of
// the length field for the caller to back-patch once the body is written.
std::size_t BeginMessage(MessageType type, ByteWriter& out) {
  out.Bytes(kMarker);
  const std::size_t length_at = out.size();
  out.U16(0);
  out.U8(static_cast<std::uint8_t>(type));
  return length_at;
}

void EndMessage(std::size_t length_at, std::size_t start, ByteWriter& out) {
  out.PatchU16(length_at, static_cast<std::uint16_t>(out.size() - start));
}

bool ReadAndCheckMarker(ByteReader& in) {
  auto marker = in.Bytes(16);
  if (marker.size() != 16) return false;
  return std::all_of(marker.begin(), marker.end(),
                     [](std::uint8_t b) { return b == 0xFF; });
}

void EncodeUpdateBody(std::span<const Prefix> withdrawn,
                      const PathAttributes* attributes,
                      std::span<const Prefix> nlri, ByteWriter& out) {
  // Withdrawn routes, preceded by their byte length (back-patched).
  const std::size_t withdrawn_len_at = out.size();
  out.U16(0);
  const std::size_t withdrawn_start = out.size();
  for (const Prefix& p : withdrawn) EncodeNlriPrefix(p, out);
  out.PatchU16(withdrawn_len_at,
               static_cast<std::uint16_t>(out.size() - withdrawn_start));

  // Path attributes, preceded by their byte length (back-patched). Per RFC,
  // attributes are omitted entirely when there is no NLRI.
  const std::size_t attrs_len_at = out.size();
  out.U16(0);
  if (!nlri.empty()) {
    const std::size_t attrs_start = out.size();
    EncodeAttributes(*attributes, out);
    out.PatchU16(attrs_len_at,
                 static_cast<std::uint16_t>(out.size() - attrs_start));
  }

  for (const Prefix& p : nlri) EncodeNlriPrefix(p, out);
}

// Writes the decoded body into `u`, whose buffers (withdrawn/nlri/path/
// communities) keep their capacity — the router's receive path reuses one
// UpdateMessage across every inbound UPDATE. A fresh `u` decodes exactly as
// Decode() does.
void DecodeUpdateBodyInto(ByteReader& in, std::size_t body_len,
                          UpdateMessage& u) {
  u.withdrawn.clear();
  u.nlri.clear();
  const std::size_t end = in.position() + body_len;

  const std::uint16_t withdrawn_len = in.U16();
  const std::size_t withdrawn_end = in.position() + withdrawn_len;
  while (in.ok() && in.position() < withdrawn_end) {
    if (auto p = DecodeNlriPrefix(in)) {
      u.withdrawn.push_back(*p);
    }
  }
  if (in.position() != withdrawn_end) in.MarkBad();

  // A withdrawal-only UPDATE (no attribute block) leaves `u.attributes`
  // as the previous decode left it: they mean nothing without NLRI, and
  // resetting them would free the path buffers the next announcement
  // decodes into.
  const std::uint16_t attrs_len = in.U16();
  if (attrs_len > 0) {
    u.attributes.ResetForDecode();
    DecodeAttributesInto(in, attrs_len, u.attributes);
  }

  while (in.ok() && in.position() < end) {
    if (auto p = DecodeNlriPrefix(in)) {
      u.nlri.push_back(*p);
    }
  }
  if (in.position() != end) in.MarkBad();
}

UpdateMessage DecodeUpdateBody(ByteReader& in, std::size_t body_len) {
  UpdateMessage u;
  DecodeUpdateBodyInto(in, body_len, u);
  return u;
}

}  // namespace

MessageType TypeOf(const Message& msg) {
  switch (msg.index()) {
    case 0: return MessageType::kOpen;
    case 1: return MessageType::kUpdate;
    case 2: return MessageType::kNotification;
    default: return MessageType::kKeepAlive;
  }
}

void EncodeNlriPrefix(const Prefix& p, ByteWriter& out) {
  out.U8(p.length());
  const std::uint32_t bits = p.bits();
  const int bytes = (p.length() + 7) / 8;
  for (int i = 0; i < bytes; ++i) {
    out.U8(static_cast<std::uint8_t>(bits >> (24 - 8 * i)));
  }
}

std::optional<Prefix> DecodeNlriPrefix(ByteReader& in) {
  const std::uint8_t len = in.U8();
  if (len > 32) {
    in.MarkBad();
    return std::nullopt;
  }
  const int bytes = (len + 7) / 8;
  std::uint32_t bits = 0;
  for (int i = 0; i < bytes; ++i) {
    bits |= std::uint32_t{in.U8()} << (24 - 8 * i);
  }
  if (!in.ok()) return std::nullopt;
  return Prefix(IPv4Address(bits), len);
}

std::vector<std::uint8_t> Encode(const Message& msg) {
  ByteWriter out;
  // One allocation per message instead of a growth cascade: updates get the
  // packer's size bound, the fixed-shape messages a small constant.
  if (const auto* u = std::get_if<UpdateMessage>(&msg)) {
    out.Reserve(EstimateUpdateSize(*u));
  } else {
    out.Reserve(kHeaderSize + 16);
  }
  EncodeInto(msg, out);
  return std::move(out).Take();
}

void EncodeInto(const Message& msg, ByteWriter& out) {
  const std::size_t start = out.size();
  const std::size_t length_at = BeginMessage(TypeOf(msg), out);
  std::visit(
      [&out](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OpenMessage>) {
          out.U8(m.version);
          out.U16(static_cast<std::uint16_t>(m.asn));
          out.U16(m.hold_time_s);
          out.U32(m.bgp_identifier.bits());
          out.U8(0);  // no optional parameters
        } else if constexpr (std::is_same_v<T, UpdateMessage>) {
          EncodeUpdateBody(m.withdrawn, &m.attributes, m.nlri, out);
        } else if constexpr (std::is_same_v<T, NotificationMessage>) {
          out.U8(static_cast<std::uint8_t>(m.code));
          out.U8(m.subcode);
        } else {
          static_assert(std::is_same_v<T, KeepAliveMessage>);
        }
      },
      msg);
  EndMessage(length_at, start, out);
}

void EncodeUpdate(std::span<const Prefix> withdrawn,
                  const PathAttributes* attributes,
                  std::span<const Prefix> nlri, ByteWriter& out) {
  const std::size_t start = out.size();
  const std::size_t length_at = BeginMessage(MessageType::kUpdate, out);
  EncodeUpdateBody(withdrawn, attributes, nlri, out);
  EndMessage(length_at, start, out);
}

bool DecodeUpdateInto(std::span<const std::uint8_t> wire, UpdateMessage& out) {
  ByteReader in(wire);
  if (!ReadAndCheckMarker(in)) return false;
  const std::uint16_t length = in.U16();
  const std::uint8_t type = in.U8();
  if (!in.ok() || length < kHeaderSize || length > kMaxMessageSize ||
      length != wire.size()) {
    return false;
  }
  if (static_cast<MessageType>(type) != MessageType::kUpdate) return false;
  DecodeUpdateBodyInto(in, length - kHeaderSize, out);
  return in.ok() && in.remaining() == 0;
}

std::optional<Message> Decode(std::span<const std::uint8_t> wire) {
  ByteReader in(wire);
  if (!ReadAndCheckMarker(in)) return std::nullopt;
  const std::uint16_t length = in.U16();
  const std::uint8_t type = in.U8();
  if (!in.ok() || length < kHeaderSize || length > kMaxMessageSize ||
      length != wire.size()) {
    return std::nullopt;
  }
  const std::size_t body_len = length - kHeaderSize;

  std::optional<Message> msg;
  switch (static_cast<MessageType>(type)) {
    case MessageType::kOpen: {
      OpenMessage m;
      m.version = in.U8();
      m.asn = in.U16();
      m.hold_time_s = in.U16();
      m.bgp_identifier = IPv4Address(in.U32());
      const std::uint8_t opt_len = in.U8();
      in.Skip(opt_len);
      msg = m;
      break;
    }
    case MessageType::kUpdate:
      msg = DecodeUpdateBody(in, body_len);
      break;
    case MessageType::kNotification: {
      NotificationMessage m;
      const std::uint8_t code = in.U8();
      if (code < 1 || code > 6) return std::nullopt;
      m.code = static_cast<NotifyCode>(code);
      m.subcode = in.U8();
      in.Skip(in.remaining());  // diagnostic data, ignored
      msg = m;
      break;
    }
    case MessageType::kKeepAlive:
      if (body_len != 0) return std::nullopt;
      msg = KeepAliveMessage{};
      break;
    default:
      return std::nullopt;
  }
  if (!in.ok() || in.remaining() != 0) return std::nullopt;
  return msg;
}

std::size_t EstimateAttributesSize(const PathAttributes& attributes) {
  // Generous bound: fixed attrs + path + communities.
  std::size_t attrs = 32;
  for (const auto& seg : attributes.as_path.segments()) {
    attrs += 2 + 2 * seg.asns.size();
  }
  return attrs + 4 * attributes.communities.size();
}

std::size_t EstimateUpdateSize(const UpdateMessage& update) {
  // Header + two length fields + 5 bytes/prefix (worst case) + the
  // attribute bound when there is NLRI.
  const std::size_t attrs =
      update.nlri.empty() ? 0 : EstimateAttributesSize(update.attributes);
  return kHeaderSize + 4 + 5 * (update.withdrawn.size() + update.nlri.size()) +
         attrs;
}

std::string ToString(const Message& msg) {
  return std::visit(
      [](const auto& m) -> std::string {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, OpenMessage>) {
          return "OPEN as=" + std::to_string(m.asn) +
                 " hold=" + std::to_string(m.hold_time_s) +
                 " id=" + m.bgp_identifier.ToString();
        } else if constexpr (std::is_same_v<T, UpdateMessage>) {
          std::string out = "UPDATE";
          if (!m.withdrawn.empty()) {
            out += " withdrawn=[";
            for (std::size_t i = 0; i < m.withdrawn.size(); ++i) {
              if (i) out.push_back(' ');
              out += m.withdrawn[i].ToString();
            }
            out += "]";
          }
          if (!m.nlri.empty()) {
            out += " nlri=[";
            for (std::size_t i = 0; i < m.nlri.size(); ++i) {
              if (i) out.push_back(' ');
              out += m.nlri[i].ToString();
            }
            out += "] " + m.attributes.ToString();
          }
          return out;
        } else if constexpr (std::is_same_v<T, NotificationMessage>) {
          return "NOTIFICATION code=" +
                 std::to_string(static_cast<int>(m.code)) +
                 " sub=" + std::to_string(m.subcode);
        } else {
          return "KEEPALIVE";
        }
      },
      msg);
}

}  // namespace iri::bgp
