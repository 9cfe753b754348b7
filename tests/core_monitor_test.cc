#include "core/monitor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/stats.h"
#include "netbase/rng.h"

namespace iri::core {
namespace {

Prefix P(const std::string& s) { return *Prefix::Parse(s); }

bgp::UpdateMessage Announce(const std::string& prefix,
                            std::vector<bgp::Asn> path) {
  bgp::UpdateMessage u;
  u.attributes.as_path = bgp::AsPath::Sequence(std::move(path));
  u.attributes.next_hop = IPv4Address(10, 0, 0, 1);
  u.nlri = {P(prefix)};
  return u;
}

bgp::UpdateMessage Withdraw(const std::string& prefix) {
  bgp::UpdateMessage u;
  u.withdrawn = {P(prefix)};
  return u;
}

TimePoint T(double s) { return TimePoint::Origin() + Duration::Seconds(s); }

TEST(ExchangeMonitor, IngestClassifiesAndFansOut) {
  ExchangeMonitor monitor;
  std::vector<Category> seen_a, seen_b;
  monitor.AddSink([&seen_a](const ClassifiedEvent& ev) {
    seen_a.push_back(ev.category);
  });
  monitor.AddSink([&seen_b](const ClassifiedEvent& ev) {
    seen_b.push_back(ev.category);
  });

  monitor.Ingest(T(0), 1, 701, Announce("10.0.0.0/8", {701}));
  monitor.Ingest(T(1), 1, 701, Withdraw("10.0.0.0/8"));
  monitor.Ingest(T(2), 1, 701, Withdraw("10.0.0.0/8"));

  const std::vector<Category> expected = {
      Category::kInitial, Category::kWithdraw, Category::kWWDup};
  EXPECT_EQ(seen_a, expected);
  EXPECT_EQ(seen_b, expected);
  EXPECT_EQ(monitor.events_seen(), 3u);
  EXPECT_EQ(monitor.messages_seen(), 3u);
}

TEST(ExchangeMonitor, MixedUpdateExplodesInWireOrder) {
  ExchangeMonitor monitor;
  std::vector<bool> withdraw_flags;
  monitor.AddSink([&withdraw_flags](const ClassifiedEvent& ev) {
    withdraw_flags.push_back(ev.event.is_withdraw);
  });
  bgp::UpdateMessage u = Announce("11.0.0.0/8", {9});
  u.withdrawn = {P("10.0.0.0/8"), P("12.0.0.0/8")};
  monitor.Ingest(T(0), 2, 1239, u);
  EXPECT_EQ(withdraw_flags, (std::vector<bool>{true, true, false}));
}

TEST(ExchangeMonitor, MrtMirrorAndReplayAgree) {
  mrt::Writer writer;

  ExchangeMonitor live;
  live.SetMrtWriter(&writer);
  CategoryCounts live_counts;
  live.AddSink([&live_counts](const ClassifiedEvent& ev) {
    live_counts.Add(ev);
  });

  // A small churny stream across two peers.
  for (int i = 0; i < 50; ++i) {
    const auto peer = static_cast<bgp::PeerId>(i % 2);
    const bgp::Asn asn = 701 + peer;
    if (i % 5 == 4) {
      live.Ingest(T(i), peer, asn, Withdraw("10.0.0.0/8"));
    } else {
      live.Ingest(T(i), peer, asn,
                  Announce("10.0.0.0/8", {asn, static_cast<bgp::Asn>(9 + i % 3)}));
    }
  }

  mrt::Reader reader(writer.buffer());
  ExchangeMonitor offline;
  CategoryCounts replay_counts;
  offline.AddSink([&replay_counts](const ClassifiedEvent& ev) {
    replay_counts.Add(ev);
  });
  const std::uint64_t updates = offline.Replay(reader);

  EXPECT_EQ(updates, 50u);
  EXPECT_EQ(replay_counts.by_category, live_counts.by_category);
  EXPECT_EQ(replay_counts.announcements, live_counts.announcements);
  EXPECT_EQ(replay_counts.withdrawals, live_counts.withdrawals);
}

TEST(ExchangeMonitor, ReplaySkipsNonUpdateRecords) {
  mrt::Writer writer;
  writer.LogMessage(T(0), 0, 701, 7, bgp::KeepAliveMessage{});
  bgp::OpenMessage open;
  open.asn = 701;
  writer.LogMessage(T(1), 0, 701, 7, open);
  writer.LogMessage(T(2), 0, 701, 7, Announce("10.0.0.0/8", {701}));

  mrt::Reader reader(writer.buffer());
  ExchangeMonitor monitor;
  EXPECT_EQ(monitor.Replay(reader), 1u);
  EXPECT_EQ(monitor.events_seen(), 1u);
}

TEST(ExchangeMonitor, ClassifierStateVisibleThroughAccessor) {
  ExchangeMonitor monitor;
  monitor.Ingest(T(0), 1, 701, Announce("10.0.0.0/8", {701}));
  monitor.Ingest(T(1), 2, 702, Announce("10.0.0.0/8", {702}));
  EXPECT_EQ(monitor.classifier().TrackedRoutes(), 2u);
}

// Random message streams: the monitor's sink sequence and totals must equal
// a bare Classifier fed ExplodeUpdate's output in order. The prefix pool is
// small, so one message often carries the same prefix twice (withdrawn and
// re-announced) and classifying out of arrival order changes a category.
TEST(ExchangeMonitor, InlineClassifyMatchesBareClassifierOnRandomStreams) {
  using Step = std::tuple<Prefix, Category, bool>;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    ExchangeMonitor monitor;
    std::vector<Step> got;
    monitor.AddSink([&got](const ClassifiedEvent& ev) {
      got.emplace_back(ev.event.prefix, ev.category, ev.policy_fluctuation);
    });
    Classifier reference;
    std::vector<Step> want;
    std::vector<UpdateEvent> events;

    for (int m = 0; m < 300; ++m) {
      bgp::UpdateMessage msg;
      const int nw = static_cast<int>(rng.Below(3));
      for (int i = 0; i < nw; ++i) {
        msg.withdrawn.push_back(Prefix(
            IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(32)), 0),
            24));
      }
      const int na = static_cast<int>(rng.Below(3));
      for (int i = 0; i < na; ++i) {
        msg.nlri.push_back(Prefix(
            IPv4Address(10, 0, static_cast<std::uint8_t>(rng.Below(32)), 0),
            24));
      }
      if (!msg.nlri.empty()) {
        msg.attributes.as_path =
            bgp::AsPath::Sequence({static_cast<bgp::Asn>(701 + rng.Below(2))});
        msg.attributes.next_hop = IPv4Address(192, 0, 2, 1);
      }
      const TimePoint t = T(m);
      const bgp::PeerId peer = static_cast<bgp::PeerId>(rng.Below(3));
      monitor.Ingest(t, peer, 100 + peer, msg);

      events.clear();
      ExplodeUpdate(t, peer, 100 + peer, msg, events);
      for (UpdateEvent& ev : events) {
        const ClassifiedEvent c = reference.Classify(std::move(ev));
        want.emplace_back(c.event.prefix, c.category, c.policy_fluctuation);
      }
    }

    EXPECT_EQ(got, want) << "seed " << seed;
    EXPECT_EQ(monitor.classifier().totals(), reference.totals())
        << "seed " << seed;
    EXPECT_EQ(monitor.events_seen(), reference.total_events());
  }
}

}  // namespace
}  // namespace iri::core
