// Randomized model-check of the Rib against a straightforward reference
// implementation: after any sequence of announce/withdraw/clear operations,
// the RIB's best route must equal SelectBest over the reference's candidate
// set, the reported change flags must be consistent, and every address-order
// output (VisitBest, VisitPathCounts, ClearPeer's changed list) must come out
// in the reference std::map's Prefix order. Prefixes are nested and of mixed
// lengths, so that order has to place covering prefixes before their
// more-specifics.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "bgp/rib.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

class RibModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibModelCheck, MatchesReferenceUnderRandomOps) {
  Rng rng(GetParam());
  Rib rib;
  constexpr int kPeers = 6;
  for (PeerId p = 0; p < kPeers; ++p) {
    rib.AddPeer(p, IPv4Address(10, 0, 0, static_cast<std::uint8_t>(p + 1)));
  }

  // Reference: prefix -> peer -> attributes.
  std::map<Prefix, std::map<PeerId, PathAttributes>> model;

  auto reference_best =
      [&model](const Prefix& prefix) -> std::optional<Candidate> {
    auto it = model.find(prefix);
    if (it == model.end() || it->second.empty()) return std::nullopt;
    std::vector<Candidate> candidates;
    for (const auto& [peer, attrs] : it->second) {
      candidates.push_back(
          {peer, IPv4Address(10, 0, 0, static_cast<std::uint8_t>(peer + 1)),
           attrs});
    }
    return candidates[static_cast<std::size_t>(SelectBest(candidates))];
  };

  // /8../24 under two /8s, drawn from few enough bits that covering and
  // more-specific prefixes of one another coexist in the table.
  auto random_prefix = [&rng] {
    std::uint64_t bits = (10 + rng.Below(2)) << 24;
    bits |= rng.Below(4) << 20;
    bits |= rng.Below(4) << 12;
    bits |= rng.Below(2) << 8;
    const auto length = static_cast<std::uint8_t>(rng.Range(8, 24));
    return Prefix(IPv4Address(static_cast<std::uint32_t>(bits)), length);
  };
  auto random_attrs = [&rng] {
    PathAttributes a;
    std::vector<Asn> path;
    const int len = 1 + static_cast<int>(rng.Below(3));
    for (int i = 0; i < len; ++i) {
      path.push_back(static_cast<Asn>(100 + rng.Below(6)));
    }
    a.as_path = AsPath::Sequence(std::move(path));
    a.next_hop = IPv4Address(static_cast<std::uint32_t>(rng.Below(4) + 1));
    if (rng.Bernoulli(0.3)) a.med = static_cast<std::uint32_t>(rng.Below(10));
    return a;
  };

  for (int step = 0; step < 3000; ++step) {
    const auto peer = static_cast<PeerId>(rng.Below(kPeers));
    const Prefix prefix = random_prefix();
    const auto before = reference_best(prefix);

    switch (rng.Below(5)) {
      case 0:
      case 1:
      case 2: {  // announce
        Route route{prefix, random_attrs()};
        const RibChange change = rib.Announce(peer, route);
        model[prefix][peer] = route.attributes;
        const auto after = reference_best(prefix);
        ASSERT_TRUE(after.has_value());
        EXPECT_EQ(change.best_changed,
                  !before.has_value() || before->peer != after->peer ||
                      !(before->attributes == after->attributes));
        break;
      }
      case 3: {  // withdraw
        const RibChange change = rib.Withdraw(peer, prefix);
        auto it = model.find(prefix);
        if (it != model.end()) {
          it->second.erase(peer);
          if (it->second.empty()) model.erase(it);
        }
        const auto after = reference_best(prefix);
        const bool expect_change =
            before.has_value() != after.has_value() ||
            (before && after &&
             (before->peer != after->peer ||
              !(before->attributes == after->attributes)));
        EXPECT_EQ(change.best_changed, expect_change);
        break;
      }
      default: {  // session loss
        // The best route changes exactly where the lost peer held it.
        std::vector<Prefix> want_changed;
        for (const auto& [p, peers] : model) {
          if (peers.contains(peer) && reference_best(p)->peer == peer) {
            want_changed.push_back(p);
          }
        }
        EXPECT_EQ(rib.ClearPeer(peer), want_changed);
        for (auto it = model.begin(); it != model.end();) {
          it->second.erase(peer);
          it = it->second.empty() ? model.erase(it) : std::next(it);
        }
        break;
      }
    }

    // Full-state cross-check every 100 steps (cheap enough at this size).
    if (step % 100 == 99) {
      std::size_t model_routes = 0;
      for (const auto& [p, peers] : model) {
        model_routes += peers.size();
        const Candidate* got = rib.Best(p);
        const auto want = reference_best(p);
        ASSERT_NE(got, nullptr) << p.ToString();
        ASSERT_TRUE(want.has_value());
        EXPECT_EQ(got->peer, want->peer) << p.ToString();
        EXPECT_EQ(got->attributes, want->attributes);
      }
      EXPECT_EQ(rib.NumPrefixes(), model.size());
      EXPECT_EQ(rib.NumRoutes(), model_routes);

      std::vector<std::pair<Prefix, PeerId>> want_best, got_best;
      std::vector<std::pair<Prefix, std::size_t>> want_counts, got_counts;
      for (const auto& [p, peers] : model) {
        want_best.emplace_back(p, reference_best(p)->peer);
        want_counts.emplace_back(p, peers.size());
      }
      rib.VisitBest([&got_best](const Prefix& p, const Candidate& best) {
        got_best.emplace_back(p, best.peer);
      });
      rib.VisitPathCounts([&got_counts](const Prefix& p, std::size_t n) {
        got_counts.emplace_back(p, n);
      });
      EXPECT_EQ(got_best, want_best);
      EXPECT_EQ(got_counts, want_counts);
      ASSERT_TRUE(rib.AuditInvariants());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibModelCheck,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// Invariant: per-peer route counts always sum to NumRoutes.
class RibCountInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RibCountInvariant, CountsAlwaysConsistent) {
  Rng rng(GetParam());
  Rib rib;
  constexpr int kPeers = 4;
  for (PeerId p = 0; p < kPeers; ++p) {
    rib.AddPeer(p, IPv4Address(1, 1, 1, static_cast<std::uint8_t>(p + 1)));
  }
  for (int step = 0; step < 2000; ++step) {
    const auto peer = static_cast<PeerId>(rng.Below(kPeers));
    const Prefix prefix(
        IPv4Address((172u << 24) |
                    (static_cast<std::uint32_t>(rng.Below(40)) << 8)),
        24);
    if (rng.Bernoulli(0.6)) {
      Route r{prefix, {}};
      r.attributes.as_path = AsPath::Sequence({static_cast<Asn>(peer + 1)});
      rib.Announce(peer, r);
    } else {
      rib.Withdraw(peer, prefix);
    }
    std::size_t sum = 0;
    for (PeerId p = 0; p < kPeers; ++p) sum += rib.PeerRouteCount(p);
    ASSERT_EQ(sum, rib.NumRoutes());
  }
  ASSERT_TRUE(rib.AuditInvariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RibCountInvariant, ::testing::Values(7, 8, 9));

}  // namespace
}  // namespace iri::bgp
