// BGP-4 message types and wire codec (RFC 1163 / RFC 4271 framing).
//
// A message is the unit the route servers logged: the paper's counts of
// "updates" are prefix events extracted from UPDATE messages (a single
// UPDATE can carry many withdrawn prefixes and many NLRI entries — Table 1's
// millions of withdrawals arrived packed this way).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "bgp/attributes.h"
#include "netbase/bytes.h"
#include "netbase/ipv4.h"

namespace iri::bgp {

inline constexpr std::size_t kHeaderSize = 19;     // marker + length + type
inline constexpr std::size_t kMaxMessageSize = 4096;

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepAlive = 4,
};

struct OpenMessage {
  std::uint8_t version = 4;
  Asn asn = 0;
  std::uint16_t hold_time_s = 180;
  IPv4Address bgp_identifier;

  friend bool operator==(const OpenMessage&, const OpenMessage&) = default;
};

// An UPDATE: withdrawn prefixes plus (attributes, NLRI) announcements.
// Either part may be empty; both empty is the "End-of-RIB"-like no-op that
// real implementations occasionally emit and the classifier must tolerate.
struct UpdateMessage {
  std::vector<Prefix> withdrawn;
  PathAttributes attributes;  // meaningful only when nlri is non-empty
  std::vector<Prefix> nlri;

  bool HasAnnouncements() const { return !nlri.empty(); }

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

// NOTIFICATION error codes (RFC 4271 §4.5) — the subset the simulator emits.
enum class NotifyCode : std::uint8_t {
  kMessageHeaderError = 1,
  kOpenMessageError = 2,
  kUpdateMessageError = 3,
  kHoldTimerExpired = 4,
  kFsmError = 5,
  kCease = 6,
};

struct NotificationMessage {
  NotifyCode code = NotifyCode::kCease;
  std::uint8_t subcode = 0;

  friend bool operator==(const NotificationMessage&,
                         const NotificationMessage&) = default;
};

struct KeepAliveMessage {
  friend bool operator==(const KeepAliveMessage&,
                         const KeepAliveMessage&) = default;
};

using Message =
    std::variant<OpenMessage, UpdateMessage, NotificationMessage,
                 KeepAliveMessage>;

MessageType TypeOf(const Message& msg);
std::string ToString(const Message& msg);

// Serializes a message including the 19-byte header. Precondition: the
// encoding fits in kMaxMessageSize bytes. Callers (the update packer) split
// over-large UPDATEs beforehand; an oversized message fails an IRI_ASSERT,
// since Decode() rejects it and past 65535 bytes its length field wraps.
std::vector<std::uint8_t> Encode(const Message& msg);

// Appends the encoded message to `out` — the allocation-free form of
// Encode for a caller that reuses one writer across messages.
void EncodeInto(const Message& msg, ByteWriter& out);

// Appends one UPDATE, header included, straight from its parts: no
// UpdateMessage is built. `attributes` is read only when `nlri` is
// non-empty (it may be null otherwise). Encode() of the equivalent
// UpdateMessage produces the same bytes.
void EncodeUpdate(std::span<const Prefix> withdrawn,
                  const PathAttributes* attributes,
                  std::span<const Prefix> nlri, ByteWriter& out);

// Decodes one message from `wire`. Returns nullopt on any framing or
// semantic error (bad marker, bad length, truncated body, unknown type).
std::optional<Message> Decode(std::span<const std::uint8_t> wire);

// Decode-scratch fast path for the dominant wire type: decodes an UPDATE
// into `out`, reusing its withdrawn/nlri/path/communities buffers instead
// of allocating fresh ones per message. Returns false for non-UPDATE
// messages and for anything Decode() would reject; `out` may then hold
// partial contents and must not be read. Validation mirrors Decode()
// exactly. An UPDATE without an attribute block (withdrawals only) leaves
// `out.attributes` untouched: they are meaningful only with NLRI.
bool DecodeUpdateInto(std::span<const std::uint8_t> wire, UpdateMessage& out);

// Prefix <-> NLRI wire helpers, shared with the MRT log codec.
void EncodeNlriPrefix(const Prefix& p, ByteWriter& out);
std::optional<Prefix> DecodeNlriPrefix(ByteReader& in);

// Conservative bound on the encoded size of an UPDATE with the given
// contents; the update packer uses it to split messages at 4096 bytes.
std::size_t EstimateUpdateSize(const UpdateMessage& update);

// The attribute part of EstimateUpdateSize for a message carrying
// `attributes` with non-empty NLRI; the packer computes it once per
// interned attribute set.
std::size_t EstimateAttributesSize(const PathAttributes& attributes);

}  // namespace iri::bgp
