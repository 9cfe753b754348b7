#include "bgp/rib.h"

#include <gtest/gtest.h>

namespace iri::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

Route R(const std::string& prefix, std::vector<Asn> path,
        std::uint32_t next_hop_octet = 1) {
  Route r;
  r.prefix = P(prefix);
  r.attributes.as_path = AsPath::Sequence(std::move(path));
  r.attributes.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(next_hop_octet));
  return r;
}

class RibTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rib.AddPeer(1, IPv4Address(1, 1, 1, 1));
    rib.AddPeer(2, IPv4Address(2, 2, 2, 2));
    rib.AddPeer(3, IPv4Address(3, 3, 3, 3));
  }
  Rib rib;
};

TEST_F(RibTest, AnnounceInstallsBest) {
  auto change = rib.Announce(1, R("10.0.0.0/8", {701}));
  EXPECT_TRUE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 1u);
  EXPECT_EQ(rib.NumPrefixes(), 1u);
  EXPECT_EQ(rib.NumRoutes(), 1u);
}

TEST_F(RibTest, SecondWorsePathDoesNotChangeBest) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  EXPECT_FALSE(change.best_changed);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
  EXPECT_EQ(rib.NumRoutes(), 2u);
  EXPECT_EQ(rib.NumPrefixes(), 1u);
}

TEST_F(RibTest, BetterPathTakesOver) {
  rib.Announce(1, R("10.0.0.0/8", {701, 1239}));
  auto change = rib.Announce(2, R("10.0.0.0/8", {3561}));
  EXPECT_TRUE(change.best_changed);
  EXPECT_EQ(change.new_best->peer, 2u);
}

TEST_F(RibTest, ImplicitWithdrawalReplacesSameePeerRoute) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(1, R("10.0.0.0/8", {701, 1239}));
  EXPECT_TRUE(change.best_changed);  // same peer, different attributes
  EXPECT_EQ(rib.NumRoutes(), 1u);   // replaced, not added
  EXPECT_EQ(rib.CandidatesFor(P("10.0.0.0/8")).size(), 1u);
}

TEST_F(RibTest, IdenticalReannouncementIsNotAChange) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Announce(1, R("10.0.0.0/8", {701}));
  EXPECT_FALSE(change.best_changed);
}

TEST_F(RibTest, WithdrawBestFailsOverToAlternate) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  auto change = rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_TRUE(change.best_changed);
  ASSERT_NE(change.new_best, nullptr);
  EXPECT_EQ(change.new_best->peer, 2u);
}

TEST_F(RibTest, WithdrawNonBestIsSilent) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 3561}));
  auto change = rib.Withdraw(2, P("10.0.0.0/8"));
  EXPECT_FALSE(change.best_changed);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
}

TEST_F(RibTest, WithdrawLastRouteEmptiesPrefix) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  auto change = rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_TRUE(change.best_changed);
  EXPECT_EQ(change.new_best, nullptr);
  EXPECT_EQ(rib.NumPrefixes(), 0u);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8")), nullptr);
}

TEST_F(RibTest, PathologicalWithdrawalIsNoOp) {
  // A WWDup at the receiving router: withdrawal for a route never held.
  auto change = rib.Withdraw(1, P("192.42.113.0/24"));
  EXPECT_FALSE(change.best_changed);
  rib.Announce(2, R("192.42.113.0/24", {9}));
  // Withdrawal from a peer that never announced it: also a no-op.
  change = rib.Withdraw(1, P("192.42.113.0/24"));
  EXPECT_FALSE(change.best_changed);
  EXPECT_EQ(rib.Best(P("192.42.113.0/24"))->peer, 2u);
}

TEST_F(RibTest, ClearPeerWithdrawsEverything) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239, 9}));
  auto changes = rib.ClearPeer(1);
  // 10/8 fails over (change), 11/8 disappears (change).
  EXPECT_EQ(changes.size(), 2u);
  EXPECT_EQ(rib.PeerRouteCount(1), 0u);
  EXPECT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 2u);
  EXPECT_EQ(rib.Best(P("11.0.0.0/8")), nullptr);
}

TEST_F(RibTest, ClearPeerReportsOnlyBestChanges) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239}));  // peer 2 loses the tie (id)
  ASSERT_EQ(rib.Best(P("10.0.0.0/8"))->peer, 1u);
  auto changes = rib.ClearPeer(2);
  EXPECT_TRUE(changes.empty());
}

TEST_F(RibTest, ClearPeerReturnsChangesInAddressOrder) {
  rib.Announce(1, R("192.0.0.0/8", {701}));
  rib.Announce(1, R("10.1.0.0/16", {701}));
  rib.Announce(2, R("10.0.0.0/8", {9}));  // peer 2 stays best for 10/8
  rib.Announce(1, R("10.0.0.0/8", {701, 1239}));
  // A visit between announcements: later prefixes must still slot into
  // address order, not trail behind the ones seen before.
  rib.VisitBest([](const Prefix&, const Candidate&) {});
  rib.Announce(1, R("11.0.0.0/8", {701}));
  rib.Announce(1, R("10.0.0.0/24", {701}));
  rib.Announce(2, R("11.0.0.0/8", {1239, 3561}));
  const std::vector<Prefix> want = {P("10.0.0.0/24"), P("10.1.0.0/16"),
                                    P("11.0.0.0/8"), P("192.0.0.0/8")};
  EXPECT_EQ(rib.ClearPeer(1), want);
  EXPECT_EQ(rib.PeerRouteCount(1), 0u);
  EXPECT_EQ(rib.PeerRouteCount(2), 2u);
  EXPECT_EQ(rib.Best(P("11.0.0.0/8"))->peer, 2u);
  EXPECT_TRUE(rib.AuditInvariants());
}

TEST_F(RibTest, PeerRouteCountTracksState) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  EXPECT_EQ(rib.PeerRouteCount(1), 2u);
  rib.Withdraw(1, P("10.0.0.0/8"));
  EXPECT_EQ(rib.PeerRouteCount(1), 1u);
}

TEST_F(RibTest, VisitBestIsAddressOrdered) {
  rib.Announce(1, R("192.0.0.0/8", {701}));
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {9}));
  std::vector<Prefix> order;
  rib.VisitBest([&order](const Prefix& p, const Candidate&) {
    order.push_back(p);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], P("10.0.0.0/8"));
  EXPECT_EQ(order[1], P("192.0.0.0/8"));
}

TEST_F(RibTest, VisitPathCountsForMultihomingCensus) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  rib.Announce(2, R("10.0.0.0/8", {1239}));
  rib.Announce(3, R("10.0.0.0/8", {3561}));
  rib.Announce(1, R("11.0.0.0/8", {701}));
  std::size_t multihomed = 0;
  rib.VisitPathCounts([&multihomed](const Prefix&, std::size_t paths) {
    if (paths > 1) ++multihomed;
  });
  EXPECT_EQ(multihomed, 1u);
}

TEST_F(RibTest, AttributeOnlyChangeIsBestChange) {
  rib.Announce(1, R("10.0.0.0/8", {701}));
  Route r = R("10.0.0.0/8", {701});
  r.attributes.med = 30;  // policy-relevant change, same forwarding tuple
  auto change = rib.Announce(1, r);
  EXPECT_TRUE(change.best_changed);
}

}  // namespace
}  // namespace iri::bgp
