// The taxonomy classifier is the heart of the reproduction: every table and
// figure depends on these transitions being exactly right.
#include "core/classifier.h"

#include <gtest/gtest.h>

namespace iri::core {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::PathAttributes Attrs(std::vector<bgp::Asn> path,
                          std::uint32_t next_hop_octet = 1,
                          std::optional<std::uint32_t> med = std::nullopt) {
  bgp::PathAttributes a;
  a.as_path = bgp::AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(next_hop_octet));
  a.med = med;
  return a;
}

UpdateEvent Announce(const std::string& prefix, bgp::PathAttributes attrs,
                     bgp::PeerId peer = 1, double t = 0) {
  UpdateEvent ev;
  ev.time = TimePoint::Origin() + Duration::Seconds(t);
  ev.peer = peer;
  ev.peer_asn = 100 + peer;
  ev.prefix = P(prefix);
  ev.attributes = std::move(attrs);
  return ev;
}

UpdateEvent Withdraw(const std::string& prefix, bgp::PeerId peer = 1,
                     double t = 0) {
  UpdateEvent ev;
  ev.time = TimePoint::Origin() + Duration::Seconds(t);
  ev.peer = peer;
  ev.peer_asn = 100 + peer;
  ev.is_withdraw = true;
  ev.prefix = P(prefix);
  return ev;
}

TEST(Classifier, CategoryPrintsByName) {
  EXPECT_EQ(::testing::PrintToString(Category::kWWDup), "WWDup");
}

TEST(Classifier, FirstAnnouncementIsInitial) {
  Classifier c;
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kInitial);
}

TEST(Classifier, IdenticalReannouncementIsAADup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kAADup);
  EXPECT_FALSE(out.policy_fluctuation);
}

TEST(Classifier, TupleIdenticalAttributeChangeIsPolicyFluctuation) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  // Same (prefix, next hop, path), different MED: AADup carrying a policy
  // fluctuation — the paper's distinction in §4.1.
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701}, 1, 30)));
  EXPECT_EQ(out.category, Category::kAADup);
  EXPECT_TRUE(out.policy_fluctuation);
}

TEST(Classifier, PathChangeIsAADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701, 1239})));
  EXPECT_EQ(out.category, Category::kAADiff);
}

TEST(Classifier, NextHopChangeIsAADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701}, 1)));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701}, 2)));
  EXPECT_EQ(out.category, Category::kAADiff);
}

TEST(Classifier, WithdrawalOfAnnouncedRouteIsWithdraw) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  auto out = c.Classify(Withdraw("10.0.0.0/8"));
  EXPECT_EQ(out.category, Category::kWithdraw);
}

TEST(Classifier, ReannounceSameRouteAfterWithdrawIsWADup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kWADup);
}

TEST(Classifier, ReannounceDifferentRouteAfterWithdrawIsWADiff) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({1239, 9})));
  EXPECT_EQ(out.category, Category::kWADiff);
}

TEST(Classifier, WithdrawalOfUnknownRouteIsWWDup) {
  Classifier c;
  auto out = c.Classify(Withdraw("192.42.113.0/24"));
  EXPECT_EQ(out.category, Category::kWWDup);
}

TEST(Classifier, RepeatedWithdrawalsAreWWDup) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Classify(Withdraw("10.0.0.0/8"));
  for (int i = 0; i < 5; ++i) {
    auto out = c.Classify(Withdraw("10.0.0.0/8"));
    EXPECT_EQ(out.category, Category::kWWDup);
  }
  EXPECT_EQ(c.totals()[static_cast<std::size_t>(Category::kWWDup)], 5u);
}

TEST(Classifier, PaperTwoMinuteTrace) {
  // The §4.1 example: ISP-X is the only announcer of 192.42.113/24; ISP-Y
  // repeatedly withdraws it without ever having announced it.
  Classifier c;
  constexpr bgp::PeerId kIspX = 1, kIspY = 2;
  c.Classify(Announce("192.42.113.0/24", Attrs({9}), kIspX));
  for (int i = 0; i < 6; ++i) {
    auto out = c.Classify(Withdraw("192.42.113.0/24", kIspY, 10.0 * i));
    EXPECT_EQ(out.category, Category::kWWDup) << "withdrawal " << i;
  }
  // ISP-X's own state is untouched by ISP-Y's pathology.
  auto out = c.Classify(Announce("192.42.113.0/24", Attrs({9}), kIspX));
  EXPECT_EQ(out.category, Category::kAADup);
}

TEST(Classifier, PerPeerStateIsIndependent) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701}), 1));
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({1239}), 2));
  EXPECT_EQ(out.category, Category::kInitial);  // first from peer 2
  EXPECT_EQ(c.TrackedRoutes(), 2u);
}

TEST(Classifier, WADupComparesAgainstPreWithdrawalRoute) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701, 9})));
  c.Classify(Withdraw("10.0.0.0/8"));
  c.Classify(Withdraw("10.0.0.0/8"));  // WWDup in between must not disturb
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701, 9})));
  EXPECT_EQ(out.category, Category::kWADup);
}

TEST(Classifier, OscillationSequenceClassifiesAlternately) {
  // A1 A2 A1 A2: after the initial, every flip is AADiff.
  Classifier c;
  const auto a1 = Attrs({701, 9});
  const auto a2 = Attrs({701, 1239, 9});
  c.Classify(Announce("10.0.0.0/8", a1));
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a2)).category,
            Category::kAADiff);
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a1)).category,
            Category::kAADiff);
  EXPECT_EQ(c.Classify(Announce("10.0.0.0/8", a2)).category,
            Category::kAADiff);
}

TEST(Classifier, TotalsAccumulate) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // Initial
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // AADup
  c.Classify(Withdraw("10.0.0.0/8"));                 // Withdraw
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));   // WADup
  c.Classify(Withdraw("11.0.0.0/8"));                 // WWDup
  const auto& t = c.totals();
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kInitial)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kAADup)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWithdraw)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWADup)], 1u);
  EXPECT_EQ(t[static_cast<std::size_t>(Category::kWWDup)], 1u);
}

TEST(Classifier, ResetClearsState) {
  Classifier c;
  c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  c.Reset();
  EXPECT_EQ(c.TrackedRoutes(), 0u);
  auto out = c.Classify(Announce("10.0.0.0/8", Attrs({701})));
  EXPECT_EQ(out.category, Category::kInitial);
}

TEST(Classifier, CategoryPredicates) {
  EXPECT_TRUE(IsInstability(Category::kWADiff));
  EXPECT_TRUE(IsInstability(Category::kAADiff));
  EXPECT_TRUE(IsInstability(Category::kWADup));
  EXPECT_FALSE(IsInstability(Category::kAADup));
  EXPECT_FALSE(IsInstability(Category::kWWDup));
  EXPECT_TRUE(IsPathology(Category::kAADup));
  EXPECT_TRUE(IsPathology(Category::kWWDup));
  EXPECT_FALSE(IsPathology(Category::kWithdraw));
  EXPECT_FALSE(IsPathology(Category::kInitial));
}

TEST(Classifier, ToStringCoversAllCategories) {
  EXPECT_STREQ(ToString(Category::kWADiff), "WADiff");
  EXPECT_STREQ(ToString(Category::kAADiff), "AADiff");
  EXPECT_STREQ(ToString(Category::kWADup), "WADup");
  EXPECT_STREQ(ToString(Category::kAADup), "AADup");
  EXPECT_STREQ(ToString(Category::kWWDup), "WWDup");
  EXPECT_STREQ(ToString(Category::kWithdraw), "Withdraw");
  EXPECT_STREQ(ToString(Category::kInitial), "Initial");
}

TEST(ExplodeUpdate, FlattensWithdrawalsFirst) {
  bgp::UpdateMessage u;
  u.withdrawn = {P("10.0.0.0/8"), P("11.0.0.0/8")};
  u.attributes = Attrs({701});
  u.nlri = {P("12.0.0.0/8")};
  std::vector<UpdateEvent> events;
  ExplodeUpdate(TimePoint::Origin() + Duration::Seconds(9), 3, 103, u,
                events);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[0].is_withdraw);
  EXPECT_TRUE(events[1].is_withdraw);
  EXPECT_FALSE(events[2].is_withdraw);
  EXPECT_EQ(events[2].prefix, P("12.0.0.0/8"));
  EXPECT_EQ(events[2].attributes, u.attributes);
  for (const auto& ev : events) {
    EXPECT_EQ(ev.peer, 3u);
    EXPECT_EQ(ev.peer_asn, 103u);
    EXPECT_EQ(ev.time, TimePoint::Origin() + Duration::Seconds(9));
  }
}

}  // namespace
}  // namespace iri::core
