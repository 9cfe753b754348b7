#include "netbase/ipv4.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

namespace iri {
namespace {

TEST(IPv4Address, ParseValid) {
  auto a = IPv4Address::Parse("192.42.113.7");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bits(), 0xC02A7107u);
  EXPECT_EQ(a->ToString(), "192.42.113.7");
}

TEST(IPv4Address, ParseBoundaries) {
  EXPECT_EQ(IPv4Address::Parse("0.0.0.0")->bits(), 0u);
  EXPECT_EQ(IPv4Address::Parse("255.255.255.255")->bits(), 0xFFFFFFFFu);
}

TEST(IPv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(IPv4Address::Parse(""));
  EXPECT_FALSE(IPv4Address::Parse("1.2.3"));
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4.5"));
  EXPECT_FALSE(IPv4Address::Parse("256.0.0.1"));
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.256"));
  EXPECT_FALSE(IPv4Address::Parse("a.b.c.d"));
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.4 "));
  EXPECT_FALSE(IPv4Address::Parse(" 1.2.3.4"));
  EXPECT_FALSE(IPv4Address::Parse("1..2.3"));
  EXPECT_FALSE(IPv4Address::Parse("-1.2.3.4"));
  EXPECT_FALSE(IPv4Address::Parse("1.2.3.+4"));
}

TEST(IPv4Address, ConstructorFromOctets) {
  constexpr IPv4Address a(10, 20, 30, 40);
  EXPECT_EQ(a.ToString(), "10.20.30.40");
}

TEST(IPv4Address, Ordering) {
  EXPECT_LT(IPv4Address(10, 0, 0, 0), IPv4Address(10, 0, 0, 1));
  EXPECT_LT(IPv4Address(9, 255, 255, 255), IPv4Address(10, 0, 0, 0));
}

TEST(Prefix, ParseAndFormat) {
  auto p = Prefix::Parse("192.42.113.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length(), 24);
  EXPECT_EQ(p->ToString(), "192.42.113.0/24");
}

TEST(Prefix, ParseCanonicalizesHostBits) {
  auto p = Prefix::Parse("192.42.113.55/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "192.42.113.0/24");
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::Parse("192.42.113.0"));
  EXPECT_FALSE(Prefix::Parse("192.42.113.0/33"));
  EXPECT_FALSE(Prefix::Parse("192.42.113.0/"));
  EXPECT_FALSE(Prefix::Parse("/24"));
  EXPECT_FALSE(Prefix::Parse("192.42.113.0/24x"));
}

TEST(Prefix, ZeroLengthMatchesEverything) {
  const Prefix def(IPv4Address(1, 2, 3, 4), 0);
  EXPECT_EQ(def.bits(), 0u);  // canonicalized
  EXPECT_TRUE(def.Contains(IPv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(def.Contains(IPv4Address(0, 0, 0, 0)));
}

TEST(Prefix, Contains) {
  const Prefix p = *Prefix::Parse("10.1.0.0/16");
  EXPECT_TRUE(p.Contains(IPv4Address(10, 1, 0, 0)));
  EXPECT_TRUE(p.Contains(IPv4Address(10, 1, 255, 255)));
  EXPECT_FALSE(p.Contains(IPv4Address(10, 2, 0, 0)));
  EXPECT_FALSE(p.Contains(IPv4Address(11, 1, 0, 0)));
}

TEST(Prefix, Covers) {
  const Prefix p16 = *Prefix::Parse("10.1.0.0/16");
  const Prefix p24 = *Prefix::Parse("10.1.3.0/24");
  const Prefix other = *Prefix::Parse("10.2.0.0/24");
  EXPECT_TRUE(p16.Covers(p24));
  EXPECT_TRUE(p16.Covers(p16));
  EXPECT_FALSE(p24.Covers(p16));
  EXPECT_FALSE(p16.Covers(other));
}

TEST(Prefix, HalvesAndParent) {
  const Prefix p = *Prefix::Parse("10.0.0.0/8");
  EXPECT_EQ(p.LowerHalf().ToString(), "10.0.0.0/9");
  EXPECT_EQ(p.UpperHalf().ToString(), "10.128.0.0/9");
  EXPECT_EQ(p.LowerHalf().Parent(), p);
  EXPECT_EQ(p.UpperHalf().Parent(), p);
}

TEST(Prefix, BitExtraction) {
  const Prefix p = *Prefix::Parse("128.0.0.0/1");
  EXPECT_TRUE(p.Bit(0));
  const Prefix q = *Prefix::Parse("64.0.0.0/2");
  EXPECT_FALSE(q.Bit(0));
  EXPECT_TRUE(q.Bit(1));
}

TEST(Prefix, OrderingIsTotal) {
  std::set<Prefix> set;
  set.insert(*Prefix::Parse("10.0.0.0/8"));
  set.insert(*Prefix::Parse("10.0.0.0/16"));
  set.insert(*Prefix::Parse("10.0.0.0/8"));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Prefix, GtestPrintsTheTextForm) {
  // Failed assertions name the prefix, not its raw (padded) object bytes.
  EXPECT_EQ(::testing::PrintToString(*Prefix::Parse("11.0.0.0/8")),
            "11.0.0.0/8");
}

TEST(Prefix, HashDistinguishesLengths) {
  std::unordered_set<Prefix> set;
  set.insert(*Prefix::Parse("10.0.0.0/8"));
  set.insert(*Prefix::Parse("10.0.0.0/16"));
  set.insert(*Prefix::Parse("10.0.0.0/24"));
  EXPECT_EQ(set.size(), 3u);
}

// Property sweep: parse(format(p)) == p across prefix lengths.
class PrefixRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrefixRoundTrip, FormatParseIdentity) {
  const int len = GetParam();
  const Prefix p(IPv4Address(0xC0A80000u | (len * 7)), static_cast<std::uint8_t>(len));
  auto reparsed = Prefix::Parse(p.ToString());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, p);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, PrefixRoundTrip, ::testing::Range(0, 33));

}  // namespace
}  // namespace iri
