#include "bgp/update_packer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "bgp/intern.h"
#include "netbase/rng.h"
#include "obs/provenance.h"

namespace iri::bgp {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

PathAttributes Attrs(std::vector<Asn> path) {
  PathAttributes a;
  a.as_path = AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(10, 0, 0, 1);
  return a;
}

TimePoint T(double seconds) {
  return TimePoint::Origin() + Duration::Seconds(seconds);
}

// The exported-set table a router would own; Id() interns into it.
class PackerTest : public ::testing::Test {
 protected:
  AttrSetId Id(std::vector<Asn> path) {
    return sets.Intern(Attrs(std::move(path)));
  }
  static RouteOp Announce(Prefix p, AttrSetId id) { return RouteOp{p, id}; }
  static RouteOp Withdraw(Prefix p) { return RouteOp{p, kInvalidAttrSetId}; }
  std::vector<UpdateMessage> Pack(const std::vector<RouteOp>& ops) {
    packer.Pack(ops, sets);
    std::vector<UpdateMessage> out;
    for (std::size_t m = 0; m < packer.size(); ++m) {
      out.push_back(packer.ToMessage(m, sets));
    }
    return out;
  }
  std::vector<RouteOp> Drain(OutboundQueue& q, TimePoint now) {
    std::vector<RouteOp> ops;
    q.Flush(now, ops);
    return ops;
  }

  PathAttributesTable sets{0};
  UpdatePacker packer;
};

TEST_F(PackerTest, GroupsAnnouncementsByAttributes) {
  const auto msgs = Pack({
      Announce(P("10.0.0.0/8"), Id({701})),
      Announce(P("11.0.0.0/8"), Id({701})),
      Announce(P("12.0.0.0/8"), Id({1239})),
  });
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].nlri.size(), 2u);
  EXPECT_EQ(msgs[1].nlri.size(), 1u);
}

TEST_F(PackerTest, WithdrawalsPackedTogetherAndFirst) {
  const auto msgs = Pack({
      Announce(P("10.0.0.0/8"), Id({701})),
      Withdraw(P("11.0.0.0/8")),
      Withdraw(P("12.0.0.0/8")),
  });
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].withdrawn.size(), 2u);
  EXPECT_TRUE(msgs[0].nlri.empty());
  EXPECT_EQ(packer.attrs(0), kInvalidAttrSetId);
  EXPECT_EQ(msgs[1].nlri.size(), 1u);
}

TEST_F(PackerTest, SplitsBelowMaxMessageSize) {
  std::vector<RouteOp> ops;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    ops.push_back(Withdraw(Prefix(IPv4Address((10u << 24) | (i << 8)), 24)));
  }
  const auto msgs = Pack(ops);
  EXPECT_GT(msgs.size(), 1u);
  std::size_t total = 0;
  for (const auto& m : msgs) {
    EXPECT_LE(Encode(m).size(), kMaxMessageSize);
    total += m.withdrawn.size();
  }
  EXPECT_EQ(total, 3000u);
}

TEST_F(PackerTest, LargeAnnouncementBatchSplits) {
  std::vector<RouteOp> ops;
  const AttrSetId id = Id({701, 1239});
  for (std::uint32_t i = 0; i < 2000; ++i) {
    ops.push_back(
        Announce(Prefix(IPv4Address((10u << 24) | (i << 8)), 24), id));
  }
  const auto msgs = Pack(ops);
  EXPECT_GT(msgs.size(), 1u);
  std::size_t total = 0;
  for (const auto& m : msgs) {
    EXPECT_LE(Encode(m).size(), kMaxMessageSize);
    total += m.nlri.size();
  }
  EXPECT_EQ(total, 2000u);
}

TEST_F(PackerTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(Pack({}).empty());
}

// Scratch reuse: a batch leaves nothing behind for the next one.
TEST_F(PackerTest, RepackReplacesThePreviousBatch) {
  (void)Pack({Withdraw(P("10.0.0.0/8")), Announce(P("11.0.0.0/8"), Id({1}))});
  const auto msgs = Pack({Announce(P("12.0.0.0/8"), Id({2}))});
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_TRUE(msgs[0].withdrawn.empty());
  EXPECT_EQ(msgs[0].nlri, std::vector<Prefix>{P("12.0.0.0/8")});
  EXPECT_EQ(msgs[0].attributes, Attrs({2}));
}

TEST_F(PackerTest, QueueLatestWinsPerPrefix) {
  OutboundQueue q({}, 1);
  q.Enqueue(T(1), Announce(P("10.0.0.0/8"), Id({701})));
  q.Enqueue(T(2), Withdraw(P("10.0.0.0/8")));
  q.Enqueue(T(3), Announce(P("10.0.0.0/8"), Id({1239})));
  auto ops = Drain(q, T(100));
  ASSERT_EQ(ops.size(), 1u);
  ASSERT_FALSE(ops[0].IsWithdraw());
  EXPECT_EQ(sets.Get(ops[0].attrs).as_path.ToString(), "1239");
}

TEST_F(PackerTest, QueuePreservesFirstEnqueueOrder) {
  OutboundQueue q({}, 1);
  q.Enqueue(T(1), Announce(P("12.0.0.0/8"), Id({1})));
  q.Enqueue(T(1), Announce(P("10.0.0.0/8"), Id({2})));
  q.Enqueue(T(1), Announce(P("11.0.0.0/8"), Id({3})));
  // Replaces, keeping slot 0.
  q.Enqueue(T(2), Announce(P("12.0.0.0/8"), Id({4})));
  auto ops = Drain(q, T(100));
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].prefix, P("12.0.0.0/8"));
  EXPECT_EQ(ops[1].prefix, P("10.0.0.0/8"));
  EXPECT_EQ(ops[2].prefix, P("11.0.0.0/8"));
}

TEST_F(PackerTest, QueueFlushBeforeDeadlineReturnsNothing) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Announce(P("10.0.0.0/8"), Id({701})));
  EXPECT_TRUE(Drain(q, T(2)).empty());
  EXPECT_EQ(q.pending_ops(), 1u);
  EXPECT_FALSE(Drain(q, T(31)).empty());
  EXPECT_TRUE(q.empty());
}

TEST_F(PackerTest, QueueUnjitteredFlushesOnFixedPhase) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  // Two queues with different seeds and different enqueue times must still
  // share the same flush phase — the self-synchronization substrate.
  OutboundQueue q1(cfg, 1), q2(cfg, 999);
  q1.Enqueue(T(3), Announce(P("10.0.0.0/8"), Id({701})));
  q2.Enqueue(T(17.5), Announce(P("11.0.0.0/8"), Id({9})));
  EXPECT_EQ(q1.NextFlush(), T(30));
  EXPECT_EQ(q2.NextFlush(), T(30));

  // An enqueue exactly on the boundary goes to the *next* boundary.
  OutboundQueue q3(cfg, 5);
  q3.Enqueue(T(30), Announce(P("12.0.0.0/8"), Id({9})));
  EXPECT_EQ(q3.NextFlush(), T(60));
}

TEST_F(PackerTest, QueueJitteredSpreadsDeadlines) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kJittered;
  cfg.jitter = 0.25;
  std::vector<TimePoint> deadlines;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    OutboundQueue q(cfg, seed);
    q.Enqueue(T(0), Announce(P("10.0.0.0/8"), Id({701})));
    deadlines.push_back(q.NextFlush());
    // All within interval*(1±jitter).
    EXPECT_GE(deadlines.back(), T(30 * 0.75));
    EXPECT_LE(deadlines.back(), T(30 * 1.25));
  }
  // Not all identical.
  const bool all_same = std::all_of(
      deadlines.begin(), deadlines.end(),
      [&deadlines](TimePoint t) { return t == deadlines.front(); });
  EXPECT_FALSE(all_same);
}

TEST_F(PackerTest, QueueDeadlineRearmsAfterFlush) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(3), Announce(P("10.0.0.0/8"), Id({701})));
  (void)Drain(q, T(30));
  EXPECT_EQ(q.NextFlush(), TimePoint::Max());
  q.Enqueue(T(42), Withdraw(P("10.0.0.0/8")));
  EXPECT_EQ(q.NextFlush(), T(60));
}

// The paper's A1-A2-A1 sequence inside one flush window: the queue emits
// the net A1 — which a stateless router then sends as a duplicate (AADup).
TEST_F(PackerTest, QueueOscillationWithinWindowCoalescesToFinalState) {
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  const auto a1 = Attrs({701, 9});
  const auto a2 = Attrs({701, 1239, 9});
  q.Enqueue(T(1), Announce(P("10.0.0.0/8"), sets.Intern(a1)));
  q.Enqueue(T(5), Announce(P("10.0.0.0/8"), sets.Intern(a2)));
  q.Enqueue(T(9), Announce(P("10.0.0.0/8"), sets.Intern(a1)));
  auto ops = Drain(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(sets.Get(ops[0].attrs), a1);
}

// W-A-W within one window nets to a withdrawal (WWDup engine when the
// route was never announced to the peer).
TEST_F(PackerTest, QueueWithdrawAnnounceWithdrawNetsToWithdraw) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Withdraw(P("10.0.0.0/8")));
  q.Enqueue(T(5), Announce(P("10.0.0.0/8"), Id({701})));
  q.Enqueue(T(9), Withdraw(P("10.0.0.0/8")));
  auto ops = Drain(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(ops[0].IsWithdraw());
}

// The probed dedup index is cleared on every flush: a prefix re-enqueued in
// the next window must get a fresh order slot reflecting the new window's
// enqueue sequence, not its position in the previous one.
TEST_F(PackerTest, QueueIndexResetsAcrossFlushWindows) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Announce(P("10.0.0.0/8"), Id({1})));
  q.Enqueue(T(2), Announce(P("11.0.0.0/8"), Id({2})));
  (void)Drain(q, T(30));
  // Second window: reversed enqueue order, plus an interleaved withdraw.
  q.Enqueue(T(31), Withdraw(P("11.0.0.0/8")));
  q.Enqueue(T(32), Announce(P("10.0.0.0/8"), Id({3})));
  q.Enqueue(T(33), Announce(P("11.0.0.0/8"), Id({4})));
  auto ops = Drain(q, T(60));
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0].prefix, P("11.0.0.0/8"));  // new window's first enqueue
  EXPECT_TRUE(ops[0].withdraw_preceded);
  EXPECT_EQ(ops[1].prefix, P("10.0.0.0/8"));
  EXPECT_FALSE(ops[1].withdraw_preceded);
}

// withdraw_preceded survives any number of in-window supersessions once a
// withdrawal has been queued for the prefix: W-A-A must still transmit the
// W,A train through a stateless sender.
TEST_F(PackerTest, QueueWithdrawPrecededStickyAcrossReenqueues) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  OutboundQueue q(cfg, 1);
  q.Enqueue(T(1), Withdraw(P("10.0.0.0/8")));
  q.Enqueue(T(2), Announce(P("10.0.0.0/8"), Id({701})));
  q.Enqueue(T(3), Announce(P("10.0.0.0/8"), Id({1239})));
  auto ops = Drain(q, T(30));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_TRUE(ops[0].withdraw_preceded);
  // ...but it does not leak into the next window.
  q.Enqueue(T(31), Announce(P("10.0.0.0/8"), Id({701})));
  ops = Drain(q, T(60));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_FALSE(ops[0].withdraw_preceded);
}

// Differential check of the probed index against a naive reference model
// under a randomized re-enqueue/withdraw interleaving: flush order is the
// first-enqueue order of each window and the net op is latest-wins,
// regardless of how many prefixes collide in the flat table's probe chains.
TEST_F(PackerTest, QueueRandomInterleavingMatchesReferenceModel) {
  PackerConfig cfg;
  cfg.discipline = TimerDiscipline::kUnjittered;
  cfg.interval = Duration::Seconds(30);
  OutboundQueue q(cfg, 1);
  Rng rng(2024);
  for (int window = 0; window < 8; ++window) {
    std::vector<RouteOp> reference;  // net ops in first-enqueue order
    const double base = window * 30.0;
    for (int i = 0; i < 200; ++i) {
      RouteOp op;
      op.prefix = Prefix(
          IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(48)), 0), 24);
      if (rng.Below(3) != 0) {
        op.attrs = Id({static_cast<Asn>(701 + rng.Below(4))});
      }
      q.Enqueue(T(base + 0.1 * i), op);
      auto it = std::find_if(
          reference.begin(), reference.end(),
          [&op](const RouteOp& r) { return r.prefix == op.prefix; });
      if (it == reference.end()) {
        reference.push_back(op);
      } else {
        if (!op.IsWithdraw() && (it->IsWithdraw() || it->withdraw_preceded)) {
          op.withdraw_preceded = true;
        }
        *it = op;
      }
    }
    auto ops = Drain(q, T(base + 30.0));
    ASSERT_EQ(ops.size(), reference.size()) << "window " << window;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(ops[i], reference[i]) << "window " << window << " op " << i;
    }
  }
}

// --- reference model --------------------------------------------------------
//
// The attribute-copy packer the id packer replaced, kept here verbatim as
// the oracle: ops carry whole attribute sets, groups compare them deeply,
// and every message is built as an UpdateMessage and run through Encode().
struct RefOp {
  Prefix prefix;
  std::optional<PathAttributes> attributes;  // nullopt == withdrawal
  obs::CauseTag cause{};
};

std::vector<UpdateMessage> ReferencePack(const std::vector<RefOp>& ops,
                                         std::vector<obs::CauseVec>& causes) {
  std::vector<UpdateMessage> out;
  causes.clear();
  UpdateMessage withdrawals;
  obs::CauseVec withdrawal_causes;
  for (const RefOp& op : ops) {
    if (op.attributes) continue;
    withdrawals.withdrawn.push_back(op.prefix);
    withdrawal_causes.push_back(op.cause);
    if (EstimateUpdateSize(withdrawals) > kMaxMessageSize - 64) {
      out.push_back(std::move(withdrawals));
      withdrawals = {};
      causes.push_back(std::move(withdrawal_causes));
      withdrawal_causes = {};
    }
  }
  if (!withdrawals.withdrawn.empty()) {
    out.push_back(std::move(withdrawals));
    causes.push_back(std::move(withdrawal_causes));
  }
  std::vector<UpdateMessage> groups;
  std::vector<obs::CauseVec> group_causes;
  for (const RefOp& op : ops) {
    if (!op.attributes) continue;
    std::size_t group_index = groups.size();
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].attributes == *op.attributes &&
          EstimateUpdateSize(groups[i]) < kMaxMessageSize - 64) {
        group_index = i;
        break;
      }
    }
    if (group_index == groups.size()) {
      groups.push_back({});
      groups.back().attributes = *op.attributes;
      group_causes.emplace_back();
    }
    groups[group_index].nlri.push_back(op.prefix);
    group_causes[group_index].push_back(op.cause);
  }
  for (std::size_t i = 0; i < groups.size(); ++i) {
    out.push_back(std::move(groups[i]));
    causes.push_back(std::move(group_causes[i]));
  }
  return out;
}

PathAttributes RandomSet(Rng& rng) {
  PathAttributes a;
  std::vector<Asn> path;
  // Long paths and many communities push the per-set estimate up, so
  // announcement groups split well before 800 prefixes.
  const std::uint64_t len =
      rng.Below(3) == 0 ? rng.Range(20, 120) : rng.Range(0, 6);
  for (std::uint64_t i = 0; i < len; ++i) {
    path.push_back(static_cast<Asn>(rng.Range(1, kMaxAsn)));
  }
  a.as_path = AsPath::Sequence(std::move(path));
  a.next_hop = IPv4Address(192, 0, 2, static_cast<std::uint8_t>(rng.Below(4)));
  if (rng.Bernoulli(0.5)) a.med = static_cast<std::uint32_t>(rng.Below(8));
  const std::uint64_t comms =
      rng.Below(3) == 0 ? rng.Range(10, 60) : rng.Below(3);
  for (std::uint64_t i = 0; i < comms; ++i) {
    a.communities.push_back(static_cast<Community>(rng.Next()));
  }
  std::sort(a.communities.begin(), a.communities.end());
  return a;
}

// Property: over random op streams — oversize batches that split, equal
// sets built separately (one id), and the W,A pairs a stateless sender
// expands withdraw-preceded ops into — the id packer's wire bytes and cause
// sidebands equal the reference model's, message for message. One packer
// serves every batch, so scratch reuse is exercised too.
TEST_F(PackerTest, WireBytesMatchReferenceModel) {
  obs::ProvenanceContext prov;
  int split_batches = 0;  // batches where some set needed two messages
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<PathAttributes> palette;
    const std::uint64_t palette_size = rng.Range(1, 6);
    for (std::uint64_t i = 0; i < palette_size; ++i) {
      palette.push_back(RandomSet(rng));
      // An equal set built separately interns to the same id.
      if (rng.Bernoulli(0.3)) palette.push_back(palette.back());
    }
    const std::uint64_t n =
        rng.Bernoulli(0.25) ? rng.Range(800, 3000) : rng.Range(1, 60);
    std::vector<RouteOp> ops;
    std::vector<RefOp> ref_ops;
    const auto add = [&](Prefix p, const PathAttributes* attrs) {
      const obs::CauseTag cause =
          prov.Allocate(obs::CauseKind::kCustomerFlap, TimePoint::Origin());
      ops.push_back(RouteOp{p, attrs ? sets.Intern(*attrs) : kInvalidAttrSetId,
                            false, cause});
      ref_ops.push_back(RefOp{p, attrs ? std::optional(*attrs) : std::nullopt,
                              cause});
    };
    for (std::uint64_t i = 0; i < n; ++i) {
      const Prefix p(IPv4Address(static_cast<std::uint32_t>(rng.Next())),
                     static_cast<std::uint8_t>(rng.Range(8, 24)));
      const PathAttributes& attrs = palette[rng.Below(palette.size())];
      const std::uint64_t kind = rng.Below(10);
      if (kind < 3) {
        add(p, nullptr);
      } else if (kind < 9) {
        add(p, &attrs);
      } else {  // withdraw-preceded: transmitted as W then A
        add(p, nullptr);
        add(p, &attrs);
      }
    }

    std::vector<obs::CauseVec> ref_causes;
    const std::vector<UpdateMessage> ref = ReferencePack(ref_ops, ref_causes);
    packer.Pack(ops, sets);
    ASSERT_EQ(packer.size(), ref.size()) << "seed " << seed;
    for (std::size_t m = 1; m < packer.size(); ++m) {
      if (packer.attrs(m) == packer.attrs(m - 1)) {
        ++split_batches;
        break;
      }
    }
    for (std::size_t m = 0; m < ref.size(); ++m) {
      ByteWriter wire;
      packer.Encode(m, sets, wire);
      ASSERT_EQ(wire.data(), Encode(Message(ref[m])))
          << "seed " << seed << " message " << m;
      const obs::CauseVec& got = packer.causes(m);
      ASSERT_EQ(got.size(), ref_causes[m].size()) << "seed " << seed;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k], ref_causes[m][k]) << "seed " << seed;
      }
    }
  }
  EXPECT_GT(split_batches, 10);
}

}  // namespace
}  // namespace iri::bgp
