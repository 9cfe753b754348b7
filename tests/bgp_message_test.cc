#include "bgp/message.h"

#include <gtest/gtest.h>

#include "core/invariants.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

PathAttributes SampleAttrs() {
  PathAttributes a;
  a.origin = Origin::kIgp;
  a.as_path = AsPath::Sequence({701, 1239, 3561});
  a.next_hop = IPv4Address(198, 32, 1, 10);
  a.med = 50;
  a.communities = {0x02BD0001, 0x02BD0002};
  return a;
}

TEST(MessageCodec, KeepAliveRoundTrip) {
  const auto wire = Encode(KeepAliveMessage{});
  EXPECT_EQ(wire.size(), kHeaderSize);
  auto decoded = Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<KeepAliveMessage>(*decoded));
}

TEST(MessageCodec, OpenRoundTrip) {
  OpenMessage open;
  open.asn = 701;
  open.hold_time_s = 90;
  open.bgp_identifier = IPv4Address(137, 39, 1, 1);
  auto decoded = Decode(Encode(open));
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<OpenMessage>(*decoded);
  EXPECT_EQ(got, open);
}

TEST(MessageCodec, NotificationRoundTrip) {
  NotificationMessage notif{NotifyCode::kHoldTimerExpired, 0};
  auto decoded = Decode(Encode(notif));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<NotificationMessage>(*decoded), notif);
}

TEST(MessageCodec, UpdateRoundTripFull) {
  UpdateMessage u;
  u.withdrawn = {P("192.42.113.0/24"), P("10.0.0.0/8")};
  u.attributes = SampleAttrs();
  u.nlri = {P("204.0.0.0/16"), P("204.1.2.0/24"), P("204.1.2.128/25")};
  auto decoded = Decode(Encode(u));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<UpdateMessage>(*decoded), u);
}

TEST(MessageCodec, WithdrawOnlyUpdateHasNoAttributes) {
  UpdateMessage u;
  u.withdrawn = {P("192.42.113.0/24")};
  const auto wire = Encode(u);
  auto decoded = Decode(wire);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<UpdateMessage>(*decoded);
  EXPECT_EQ(got.withdrawn, u.withdrawn);
  EXPECT_TRUE(got.nlri.empty());
}

TEST(MessageCodec, EmptyUpdateIsLegal) {
  auto decoded = Decode(Encode(UpdateMessage{}));
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<UpdateMessage>(*decoded);
  EXPECT_TRUE(got.withdrawn.empty());
  EXPECT_TRUE(got.nlri.empty());
}

TEST(MessageCodec, RejectsBadMarker) {
  auto wire = Encode(KeepAliveMessage{});
  wire[3] = 0x00;
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsLengthMismatch) {
  auto wire = Encode(KeepAliveMessage{});
  wire.push_back(0);  // trailing garbage
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsTruncatedHeader) {
  auto wire = Encode(KeepAliveMessage{});
  wire.resize(10);
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsUnknownType) {
  auto wire = Encode(KeepAliveMessage{});
  wire[18] = 9;  // type byte
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsKeepAliveWithBody) {
  auto wire = Encode(KeepAliveMessage{});
  // Grow the body by one byte and fix the length field.
  wire.push_back(0);
  wire[16] = 0;
  wire[17] = static_cast<std::uint8_t>(wire.size());
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsTruncatedUpdateBody) {
  UpdateMessage u;
  u.withdrawn = {P("10.0.0.0/8"), P("11.0.0.0/8")};
  auto wire = Encode(u);
  // Chop one byte off the body and patch the length.
  wire.pop_back();
  wire[16] = static_cast<std::uint8_t>(wire.size() >> 8);
  wire[17] = static_cast<std::uint8_t>(wire.size());
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(MessageCodec, RejectsBadNotificationCode) {
  auto wire = Encode(NotificationMessage{NotifyCode::kCease, 0});
  wire[19] = 0;  // code 0 invalid
  EXPECT_FALSE(Decode(wire).has_value());
}

TEST(NlriCodec, EncodesMinimalBytes) {
  ByteWriter w;
  EncodeNlriPrefix(P("10.0.0.0/8"), w);
  EXPECT_EQ(w.size(), 2u);  // length octet + 1 address byte
  ByteWriter w2;
  EncodeNlriPrefix(P("10.1.0.0/16"), w2);
  EXPECT_EQ(w2.size(), 3u);
  ByteWriter w3;
  EncodeNlriPrefix(P("0.0.0.0/0"), w3);
  EXPECT_EQ(w3.size(), 1u);
}

TEST(NlriCodec, RejectsOverlongPrefix) {
  const std::uint8_t bad[] = {33, 1, 2, 3, 4, 5};
  ByteReader r(bad);
  EXPECT_FALSE(DecodeNlriPrefix(r).has_value());
  EXPECT_FALSE(r.ok());
}

// Property: NLRI round-trips for every prefix length.
class NlriRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(NlriRoundTrip, Identity) {
  const auto len = static_cast<std::uint8_t>(GetParam());
  const Prefix p(IPv4Address(0xDEADBEEF), len);
  ByteWriter w;
  EncodeNlriPrefix(p, w);
  ByteReader r(w.data());
  auto decoded = DecodeNlriPrefix(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, p);
  EXPECT_EQ(r.remaining(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, NlriRoundTrip, ::testing::Range(0, 33));

TEST(MessageCodec, EstimateBoundsActualSize) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    UpdateMessage u;
    const int nw = static_cast<int>(rng.Below(40));
    for (int i = 0; i < nw; ++i) {
      u.withdrawn.push_back(Prefix(
          IPv4Address(static_cast<std::uint32_t>(rng.Next())),
          static_cast<std::uint8_t>(rng.Range(8, 28))));
    }
    const int na = static_cast<int>(rng.Below(40));
    if (na > 0) u.attributes = SampleAttrs();
    for (int i = 0; i < na; ++i) {
      u.nlri.push_back(Prefix(
          IPv4Address(static_cast<std::uint32_t>(rng.Next())),
          static_cast<std::uint8_t>(rng.Range(8, 28))));
    }
    EXPECT_GE(EstimateUpdateSize(u), Encode(u).size());
  }
}

// Encode's size bound is the caller's precondition: 2 000 /24s (~8 KB)
// overflow one frame, and the encoder reports it instead of silently
// emitting bytes Decode() rejects.
TEST(MessageCodec, OversizedUpdateFailsSizeInvariant) {
  inv::ResetForTest();
  inv::SetPolicy(inv::Policy::kLog);
  UpdateMessage u;
  u.attributes = SampleAttrs();
  for (std::uint32_t i = 0; i < 2000; ++i) {
    u.nlri.push_back(Prefix(IPv4Address((10u << 24) | (i << 8)), 24));
  }
  const auto wire = Encode(u);
  EXPECT_GT(wire.size(), kMaxMessageSize);
  EXPECT_EQ(inv::InvariantStats().failed.load(), 1u);
  EXPECT_FALSE(Decode(wire).has_value());
  inv::ResetForTest();
}

// Fuzz: random bytes with a valid marker/length frame never crash the
// decoder, and decode(encode(x)) == x for random structured updates.
TEST(MessageCodec, FuzzRandomBodiesDoNotCrash) {
  Rng rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t body = rng.Below(64);
    std::vector<std::uint8_t> wire(kHeaderSize + body);
    for (std::size_t i = 0; i < 16; ++i) wire[i] = 0xFF;
    wire[16] = static_cast<std::uint8_t>(wire.size() >> 8);
    wire[17] = static_cast<std::uint8_t>(wire.size());
    wire[18] = static_cast<std::uint8_t>(1 + rng.Below(4));
    for (std::size_t i = kHeaderSize; i < wire.size(); ++i) {
      wire[i] = static_cast<std::uint8_t>(rng.Below(256));
    }
    (void)Decode(wire);  // must not crash; result validity is unspecified
  }
}

TEST(MessageCodec, ToStringSmoke) {
  UpdateMessage u;
  u.withdrawn = {P("10.0.0.0/8")};
  u.attributes = SampleAttrs();
  u.nlri = {P("204.0.0.0/16")};
  const std::string s = ToString(Message{u});
  EXPECT_NE(s.find("UPDATE"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.0/8"), std::string::npos);
  EXPECT_NE(s.find("204.0.0.0/16"), std::string::npos);
}

}  // namespace
}  // namespace iri::bgp
