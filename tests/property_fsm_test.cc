// Robustness properties of the session FSM and the outbound queue under
// randomized event sequences.
#include <gtest/gtest.h>

#include <set>

#include "bgp/session.h"
#include "bgp/update_packer.h"
#include "netbase/rng.h"

namespace iri::bgp {
namespace {

// Property: no sequence of events crashes the FSM, deadlines never recede
// into the deep past without being serviceable, and kSessionUp/kSessionDown
// strictly alternate.
class FsmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FsmFuzz, RandomEventSequencesKeepInvariants) {
  Rng rng(GetParam());
  SessionConfig cfg;
  cfg.local_asn = 701;
  cfg.router_id = IPv4Address(1, 1, 1, 1);
  cfg.hold_time_s = 90;
  SessionFsm fsm(cfg);

  TimePoint now = TimePoint::Origin();
  bool up = false;  // tracked session state per Up/Down actions
  SessionFsm::Actions actions;

  OpenMessage open;
  open.asn = 1239;
  open.hold_time_s = 90;
  open.bgp_identifier = IPv4Address(2, 2, 2, 2);

  for (int step = 0; step < 5000; ++step) {
    now += Duration::Seconds(rng.Exponential(10.0));
    actions.clear();
    const SessionState before = fsm.state();
    switch (rng.Below(8)) {
      case 0: fsm.Start(now, actions); break;
      case 1: fsm.Stop(now, actions); break;
      case 2: fsm.OnTransportUp(now, actions); break;
      case 3: fsm.OnTransportDown(now, actions); break;
      case 4: fsm.OnMessage(now, open, actions); break;
      case 5: fsm.OnMessage(now, KeepAliveMessage{}, actions); break;
      case 6:
        fsm.OnMessage(now, UpdateMessage{}, actions);
        break;
      default: {
        const TimePoint deadline = fsm.NextDeadline();
        if (deadline != TimePoint::Max()) {
          now = std::max(now, deadline);
        }
        fsm.OnTimer(now, actions);
        break;
      }
    }
    // Every public event must move the session along a legal edge of the
    // transition matrix (the same matrix the FSM's runtime audit enforces).
    ASSERT_TRUE(IsLegalTransition(before, fsm.state()))
        << "illegal " << ToString(before) << " -> " << ToString(fsm.state())
        << " at step " << step;
    for (const auto& act : actions) {
      if (act.type == SessionFsm::ActionType::kSessionUp) {
        EXPECT_FALSE(up) << "double kSessionUp at step " << step;
        up = true;
      } else if (act.type == SessionFsm::ActionType::kSessionDown) {
        EXPECT_TRUE(up) << "kSessionDown without up at step " << step;
        up = false;
      }
    }
    // State/Up consistency: Established <=> up flag.
    EXPECT_EQ(fsm.state() == SessionState::kEstablished, up);
    // Deadlines are meaningful whenever the session is not idle.
    if (fsm.state() != SessionState::kIdle) {
      EXPECT_NE(fsm.NextDeadline(), TimePoint::Max());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsmFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Property: the outbound queue never loses a prefix — every enqueued prefix
// appears in the next flush exactly once (latest op wins).
class QueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueFuzz, FlushCoversExactlyThePendingPrefixes) {
  Rng rng(GetParam());
  PackerConfig cfg;
  cfg.interval = Duration::Seconds(30);
  cfg.discipline = (GetParam() % 2) ? TimerDiscipline::kUnjittered
                                    : TimerDiscipline::kJittered;
  OutboundQueue queue(cfg, GetParam());
  PathAttributesTable sets(0);
  std::vector<RouteOp> flushed;

  TimePoint now = TimePoint::Origin();
  for (int round = 0; round < 50; ++round) {
    std::set<Prefix> enqueued;
    const int ops = 1 + static_cast<int>(rng.Below(40));
    for (int i = 0; i < ops; ++i) {
      const Prefix prefix(
          IPv4Address((10u << 24) |
                      (static_cast<std::uint32_t>(rng.Below(12)) << 8)),
          24);
      RouteOp op;
      op.prefix = prefix;
      if (rng.Bernoulli(0.5)) {
        PathAttributes attrs;
        attrs.as_path = AsPath::Sequence({static_cast<Asn>(rng.Below(9) + 1)});
        op.attrs = sets.Intern(attrs);
      }
      queue.Enqueue(now, op);
      enqueued.insert(prefix);
      now += Duration::Millis(static_cast<std::int64_t>(rng.Below(2000)));
    }
    ASSERT_EQ(queue.pending_ops(), enqueued.size());

    const TimePoint deadline = queue.NextFlush();
    ASSERT_NE(deadline, TimePoint::Max());
    now = std::max(now, deadline);
    queue.Flush(now, flushed);
    std::set<Prefix> seen;
    for (const auto& op : flushed) {
      EXPECT_TRUE(seen.insert(op.prefix).second)
          << "duplicate " << op.prefix.ToString();
    }
    EXPECT_EQ(seen, enqueued);
    EXPECT_TRUE(queue.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueFuzz, ::testing::Values(10, 11, 12, 13));

// Property: the packer partitions ops exactly — every op appears in
// exactly one message, withdrawals as withdrawals, announcements under
// their own attributes, and every message encodes within the size cap.
class PackerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackerFuzz, PackingIsAPartition) {
  Rng rng(GetParam());
  PathAttributesTable sets(0);
  std::vector<RouteOp> ops;
  const int n = 1 + static_cast<int>(rng.Below(800));
  std::set<Prefix> used;
  for (int i = 0; i < n; ++i) {
    Prefix prefix(IPv4Address(static_cast<std::uint32_t>(rng.Next())),
                  static_cast<std::uint8_t>(rng.Range(8, 28)));
    if (!used.insert(prefix).second) continue;
    RouteOp op;
    op.prefix = prefix;
    if (rng.Bernoulli(0.6)) {
      PathAttributes attrs;
      attrs.as_path = AsPath::Sequence({static_cast<Asn>(rng.Below(4) + 1)});
      attrs.next_hop = IPv4Address(10, 0, 0, static_cast<std::uint8_t>(rng.Below(3)));
      op.attrs = sets.Intern(attrs);
    }
    ops.push_back(std::move(op));
  }

  UpdatePacker packer;
  packer.Pack(ops, sets);
  std::vector<UpdateMessage> messages;
  for (std::size_t m = 0; m < packer.size(); ++m) {
    messages.push_back(packer.ToMessage(m, sets));
  }
  std::set<Prefix> withdrawn_out, announced_out;
  for (const auto& msg : messages) {
    EXPECT_LE(Encode(msg).size(), kMaxMessageSize);
    for (const auto& p : msg.withdrawn) {
      EXPECT_TRUE(withdrawn_out.insert(p).second);
    }
    for (const auto& p : msg.nlri) {
      EXPECT_TRUE(announced_out.insert(p).second);
    }
  }
  std::set<Prefix> withdrawn_in, announced_in;
  for (const auto& op : ops) {
    (op.IsWithdraw() ? withdrawn_in : announced_in).insert(op.prefix);
  }
  EXPECT_EQ(withdrawn_out, withdrawn_in);
  EXPECT_EQ(announced_out, announced_in);

  // Attribute fidelity: every announced prefix's message carries its attrs.
  for (const auto& op : ops) {
    if (op.IsWithdraw()) continue;
    bool found = false;
    for (const auto& msg : messages) {
      for (const auto& p : msg.nlri) {
        if (p == op.prefix) {
          EXPECT_EQ(msg.attributes, sets.Get(op.attrs));
          found = true;
        }
      }
    }
    EXPECT_TRUE(found);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackerFuzz,
                         ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace iri::bgp
