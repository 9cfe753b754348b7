// Edge-path coverage for the Router: loop rejection, decode failures,
// dampening verdict paths, crash-time API behaviour.
#include <gtest/gtest.h>

#include "sim/link.h"
#include "sim/router.h"
#include "sim/scheduler.h"

namespace iri::sim {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

RouterConfig Basic(const char* name, bgp::Asn asn, std::uint8_t id) {
  RouterConfig cfg;
  cfg.name = name;
  cfg.asn = asn;
  cfg.router_id = IPv4Address(10, 0, 0, id);
  cfg.interface_addr = IPv4Address(10, 1, 0, id);
  cfg.packer.interval = Duration::Seconds(1);
  cfg.packer.discipline = bgp::TimerDiscipline::kUnjittered;
  return cfg;
}

struct Pair {
  Pair(RouterConfig a_cfg, RouterConfig b_cfg)
      : a(sched, std::move(a_cfg), 1),
        b(sched, std::move(b_cfg), 2),
        link(sched, Duration::Millis(1)) {
    a.AttachLink(link, true, b.config().asn);
    b.AttachLink(link, false, a.config().asn);
    sched.At(TimePoint::Origin(), [this] { link.Restore(); });
    sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));
  }
  void Settle(double seconds = 5) {
    sched.RunUntil(sched.Now() + Duration::Seconds(seconds));
  }

  Scheduler sched;
  Router a, b;
  Link link;
};

TEST(RouterEdge, ReceiverRejectsPathContainingOwnAsn) {
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2));
  // The sender-side check would normally stop this; inject the looping
  // UPDATE directly at B's transport, as a buggy peer would emit it.
  bgp::UpdateMessage update;
  update.attributes.as_path = bgp::AsPath::Sequence({100, 64512, 200});
  update.attributes.next_hop = IPv4Address(10, 1, 0, 1);
  update.nlri = {P("192.42.113.0/24")};
  net.b.OnWireData(0, bgp::Encode(bgp::Message{update}));
  net.Settle();
  EXPECT_EQ(net.b.rib().Best(P("192.42.113.0/24")), nullptr);
  EXPECT_GE(net.b.stats().loops_rejected, 1u);
}

TEST(RouterEdge, GarbageBytesAreCountedNotFatal) {
  Pair net(Basic("A", 100, 1), Basic("B", 200, 2));
  // Inject garbage directly at B's transport.
  net.b.OnWireData(0, std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(net.b.stats().decode_failures, 1u);
  // The session survives (garbage is dropped before the FSM).
  EXPECT_EQ(net.b.PeerSessionState(0), bgp::SessionState::kEstablished);
  net.a.Originate({P("10.0.0.0/8"), {}});
  net.Settle();
  EXPECT_NE(net.b.rib().Best(P("10.0.0.0/8")), nullptr);
}

TEST(RouterEdge, ImportPolicyDenialRemovesStaleRoute) {
  // B denies long prefixes on import; a route announced before the /25
  // split must be withdrawn when the replacement is denied.
  Scheduler sched;
  Router a(sched, Basic("A", 100, 1), 1);
  bgp::Policy import = bgp::Policy::AcceptAll();
  bgp::PolicyRule deny_long;
  deny_long.match.min_length = 25;
  deny_long.action.deny = true;
  import.Add(deny_long);
  Router b(sched, Basic("B", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  a.AttachLink(link, true, 200);
  b.AttachLink(link, false, 100, std::move(import));
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));

  a.Originate({P("10.0.0.0/24"), {}});
  sched.RunUntil(sched.Now() + Duration::Seconds(5));
  EXPECT_NE(b.rib().Best(P("10.0.0.0/24")), nullptr);
  a.Originate({P("10.0.0.0/25"), {}});  // denied on import at B
  sched.RunUntil(sched.Now() + Duration::Seconds(5));
  EXPECT_EQ(b.rib().Best(P("10.0.0.0/25")), nullptr);
}

TEST(RouterEdge, CrashedRouterIgnoresOriginationApis) {
  Scheduler sched;
  RouterConfig cfg = Basic("frail", 100, 1);
  cfg.crash_backlog = Duration::Millis(1);
  cfg.cost_per_prefix = Duration::Millis(10);
  cfg.reboot_time = Duration::Hours(1);
  Router frail(sched, cfg, 1);
  Router feeder(sched, Basic("feeder", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  feeder.AttachLink(link, true, 100);
  frail.AttachLink(link, false, 200);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));

  for (std::uint32_t i = 0; i < 50; ++i) {
    feeder.Originate({Prefix(IPv4Address((10u << 24) | (i << 8)), 24), {}});
  }
  sched.RunUntil(sched.Now() + Duration::Seconds(10));
  ASSERT_TRUE(frail.crashed());
  // APIs on a crashed box are inert.
  frail.Originate({P("204.0.0.0/24"), {}});
  frail.WithdrawLocal(P("204.0.0.0/24"));
  frail.InternalReset();
  EXPECT_FALSE(frail.HasLocalRoute(P("204.0.0.0/24")));
}

TEST(RouterEdge, DampenedRouteReadvertisedAtReuseTime) {
  // The scheduled re-advertisement after suppression release (the paper's
  // delayed "legitimate announcement") must fire automatically.
  Scheduler sched;
  RouterConfig cfg = Basic("border", 100, 1);
  cfg.enable_dampening = true;
  Router border(sched, cfg, 1);
  Router peer(sched, Basic("peer", 200, 2), 2);
  Link link(sched, Duration::Millis(1));
  border.AttachLink(link, true, 200);
  peer.AttachLink(link, false, 100);
  sched.At(TimePoint::Origin(), [&link] { link.Restore(); });
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(3));

  const Prefix p = P("204.10.0.0/24");
  // Flap until suppressed.
  for (int i = 0; i < 5; ++i) {
    border.Originate({p, {}});
    sched.RunUntil(sched.Now() + Duration::Seconds(30));
    border.WithdrawLocal(p);
    sched.RunUntil(sched.Now() + Duration::Seconds(30));
  }
  border.Originate({p, {}});  // final, legitimate announcement — suppressed
  sched.RunUntil(sched.Now() + Duration::Minutes(2));
  ASSERT_GT(border.stats().damped_updates, 0u);
  EXPECT_EQ(peer.rib().Best(p), nullptr) << "should still be held down";

  // ...but after the reuse time it must reach the peer without any further
  // operator action.
  sched.RunUntil(sched.Now() + Duration::Hours(1));
  EXPECT_NE(peer.rib().Best(p), nullptr);
}

// A scripted BGP peer: answers every OPEN with OPEN + KEEPALIVE (so the
// router's session establishes) and records each message's arrival time
// and type.
class ScriptedPeer : public LinkEndpoint {
 public:
  ScriptedPeer(Scheduler& sched, Link& link) : sched_(sched), link_(link) {}
  void OnTransportUp(std::uint32_t) override {}
  void OnTransportDown(std::uint32_t) override {}
  void OnWireData(std::uint32_t, std::span<const std::uint8_t> bytes,
                  const obs::CauseVec&) override {
    const auto type =
        static_cast<bgp::MessageType>(bytes[bgp::kHeaderSize - 1]);
    arrivals.push_back({sched_.Now(), type});
    if (type == bgp::MessageType::kOpen) {
      bgp::OpenMessage open;
      open.asn = 200;
      Send(open);
      Send(bgp::KeepAliveMessage{});
    }
  }
  void Send(const bgp::Message& msg) { link_.Send(this, bgp::Encode(msg)); }
  // UPDATEs announcing `n` distinct /24s, 500 to a message.
  void SendLoad(std::uint32_t base, int n) {
    bgp::UpdateMessage u;
    u.attributes.as_path = bgp::AsPath::Sequence({200});
    u.attributes.next_hop = IPv4Address(10, 1, 0, 2);
    for (int i = 0; i < n; ++i) {
      const std::uint32_t bits = base + (static_cast<std::uint32_t>(i) << 8);
      u.nlri.push_back(Prefix(IPv4Address(bits), 24));
      if (u.nlri.size() == 500 || i + 1 == n) {
        Send(u);
        u.nlri.clear();
      }
    }
  }

  struct Arrival {
    TimePoint at;
    bgp::MessageType type;
  };
  std::vector<Arrival> arrivals;

 private:
  Scheduler& sched_;
  Link& link_;
};

// Sends delayed behind the CPU backlog keep their own due times across a
// crash: Reboot resets the backlog, so a send made after the reboot falls
// due before one queued before the crash — and each still leaves at its
// own time (the delayed-send slab is not a FIFO).
TEST(RouterEdge, DelayedSendsKeepTheirTimesAcrossReboot) {
  Scheduler sched;
  RouterConfig cfg = Basic("A", 100, 1);
  cfg.packer.interval = Duration::Seconds(30);
  cfg.cost_per_prefix = Duration::Millis(20);
  cfg.cost_per_message = Duration::Seconds(1);
  cfg.crash_backlog = Duration::Seconds(60);
  cfg.reboot_time = Duration::Seconds(1);
  Router a(sched, cfg, 1);
  Link link(sched, Duration::Millis(1));
  ScriptedPeer peer(sched, link);
  a.AttachLink(link, true, 200);
  link.AttachB(&peer, 0);
  link.Restore();
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(5));
  ASSERT_EQ(a.PeerSessionState(0), bgp::SessionState::kEstablished);

  // 40 s of backlog; a route originated now is flushed at t=30 s, and its
  // UPDATE waits behind the backlog.
  a.Originate({P("10.0.0.0/8"), {}});
  peer.SendLoad(0x0B000000u, 2000);
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(30));
  ASSERT_GT(a.Backlog(), Duration::Seconds(5));
  ASSERT_GE(a.delayed_sends(), 1u);
  const TimePoint update_due = sched.Now() + a.Backlog();

  // More load pushes the backlog past the crash threshold; the router
  // reboots a second later with its backlog reset, re-opens the session and
  // answers the peer's OPEN with a KEEPALIVE delayed only by that OPEN's
  // processing cost.
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(31));
  peer.SendLoad(0x0C000000u, 3000);
  sched.RunUntil(TimePoint::Origin() + Duration::Seconds(31.5));
  ASSERT_TRUE(a.crashed());
  sched.RunUntil(update_due + Duration::Seconds(5));
  ASSERT_FALSE(a.crashed());

  // The pre-crash UPDATE arrives exactly at its own due time (plus the
  // link latency), after the post-reboot KEEPALIVE that fell due earlier.
  const ScriptedPeer::Arrival* update = nullptr;
  const ScriptedPeer::Arrival* reboot_keepalive = nullptr;
  for (const auto& arrival : peer.arrivals) {
    if (arrival.type == bgp::MessageType::kUpdate && update == nullptr) {
      update = &arrival;
    }
    if (arrival.type == bgp::MessageType::kKeepAlive &&
        arrival.at > TimePoint::Origin() + Duration::Seconds(32) &&
        reboot_keepalive == nullptr) {
      reboot_keepalive = &arrival;
    }
  }
  ASSERT_NE(update, nullptr);
  ASSERT_NE(reboot_keepalive, nullptr);
  EXPECT_EQ(update->at, update_due + Duration::Millis(1));
  EXPECT_LT(reboot_keepalive->at, update->at);
  EXPECT_EQ(a.delayed_sends(), 0u);
}

}  // namespace
}  // namespace iri::sim
