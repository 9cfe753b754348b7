#include "sim/link.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace iri::sim {
namespace {

using Wire = std::vector<std::uint8_t>;

// A scriptable endpoint that records everything the link delivers.
class FakeEndpoint : public LinkEndpoint {
 public:
  void OnTransportUp(std::uint32_t peer) override { ups.push_back(peer); }
  void OnTransportDown(std::uint32_t peer) override { downs.push_back(peer); }
  void OnWireData(std::uint32_t peer, std::span<const std::uint8_t> bytes,
                  const obs::CauseVec& /*causes*/) override {
    received.emplace_back(peer, Wire(bytes.begin(), bytes.end()));
  }

  std::vector<std::uint32_t> ups, downs;
  std::vector<std::pair<std::uint32_t, Wire>> received;
  // The payloads alone, in arrival order.
  std::vector<Wire> Payloads() const {
    std::vector<Wire> out;
    for (const auto& r : received) out.push_back(r.second);
    return out;
  }
};

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() : link(sched, Duration::Millis(5)) {
    link.AttachA(&a, 7);
    link.AttachB(&b, 9);
  }

  Scheduler sched;
  Link link;
  FakeEndpoint a, b;
};

TEST_F(LinkTest, RestoreNotifiesBothEndpointsWithTheirPeerIds) {
  link.Restore();
  ASSERT_EQ(a.ups.size(), 1u);
  ASSERT_EQ(b.ups.size(), 1u);
  EXPECT_EQ(a.ups[0], 7u);
  EXPECT_EQ(b.ups[0], 9u);
  EXPECT_TRUE(link.up());
}

TEST_F(LinkTest, RestoreIsIdempotent) {
  link.Restore();
  link.Restore();
  EXPECT_EQ(a.ups.size(), 1u);
}

TEST_F(LinkTest, FailNotifiesBoth) {
  link.Restore();
  link.Fail();
  EXPECT_EQ(a.downs.size(), 1u);
  EXPECT_EQ(b.downs.size(), 1u);
  EXPECT_FALSE(link.up());
  link.Fail();  // idempotent
  EXPECT_EQ(a.downs.size(), 1u);
}

TEST_F(LinkTest, DeliversAfterLatencyToOtherSide) {
  link.Restore();
  link.Send(&a, Wire{1, 2, 3});
  EXPECT_TRUE(b.received.empty());  // not yet delivered
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(5));
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, 9u);
  EXPECT_EQ(b.received[0].second, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(a.received.empty());
}

TEST_F(LinkTest, DeliversBothDirections) {
  link.Restore();
  link.Send(&a, Wire{1});
  link.Send(&b, Wire{2});
  sched.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_EQ(a.received[0].second[0], 2);
}

TEST_F(LinkTest, SendOnDownLinkIsDropped) {
  link.Send(&a, Wire{1});
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(LinkTest, InFlightDataLostOnFailure) {
  link.Restore();
  link.Send(&a, Wire{1});
  link.Fail();  // fails before the 5 ms delivery
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(LinkTest, InFlightDataLostAcrossFlapEpoch) {
  // Fail + restore before delivery time: the segment is still lost (TCP
  // would have seen the carrier drop).
  link.Restore();
  link.Send(&a, Wire{1});
  link.Fail();
  link.Restore();
  sched.RunAll();
  EXPECT_TRUE(b.received.empty());
}

// Each direction is a FIFO: sends interleaved across both directions and
// across time arrive, per direction, in send order.
TEST_F(LinkTest, InterleavedSendsArriveInSendOrder) {
  link.Restore();
  link.Send(&a, Wire{1});
  link.Send(&b, Wire{101});
  link.Send(&a, Wire{2});
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(2));
  link.Send(&b, Wire{102});
  link.Send(&a, Wire{3});
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(6));  // 1, 2, 101 due
  EXPECT_EQ(b.Payloads(), (std::vector<Wire>{{1}, {2}}));
  link.Send(&a, Wire{4});
  link.Send(&b, Wire{103});
  sched.RunAll();
  EXPECT_EQ(b.Payloads(), (std::vector<Wire>{{1}, {2}, {3}, {4}}));
  EXPECT_EQ(a.Payloads(), (std::vector<Wire>{{101}, {102}, {103}}));
  EXPECT_EQ(link.in_flight(&a), 0u);
  EXPECT_EQ(link.in_flight(&b), 0u);
}

// A Fail/Restore while messages are in flight drops exactly the messages
// sent before the Fail; those sent after the Restore — still queued behind
// the dropped ones — are delivered.
TEST_F(LinkTest, FlapDropsExactlyTheOldEpoch) {
  link.Restore();
  link.Send(&a, Wire{1});
  link.Send(&b, Wire{101});
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(1));
  link.Send(&a, Wire{2});
  link.Fail();
  link.Restore();
  link.Send(&a, Wire{3});
  link.Send(&b, Wire{102});
  sched.RunUntil(TimePoint::Origin() + Duration::Millis(2));
  link.Send(&a, Wire{4});
  EXPECT_EQ(link.in_flight(&a), 4u);  // the dropped ones still hold slots
  sched.RunAll();
  EXPECT_EQ(b.Payloads(), (std::vector<Wire>{{3}, {4}}));
  EXPECT_EQ(a.Payloads(), (std::vector<Wire>{{102}}));
  EXPECT_EQ(link.in_flight(&a), 0u);
}

// Delivered messages give their slots back: a steady stream reuses the
// same few buffers, and a burst of large messages does not leave its
// storage behind.
TEST_F(LinkTest, StorageIsReusedAfterDelivery) {
  link.Restore();
  const auto send_three = [this] {
    for (int i = 0; i < 3; ++i) {
      link.Send(&a, Wire(60, static_cast<std::uint8_t>(i)));
    }
  };
  send_three();
  sched.RunAll();
  const std::size_t slots = link.buffer_slots(&a);
  EXPECT_GE(slots, 3u);
  for (int round = 0; round < 100; ++round) {
    send_three();
    sched.RunAll();
  }
  EXPECT_EQ(link.buffer_slots(&a), slots);
  EXPECT_EQ(b.received.size(), 303u);
  EXPECT_EQ(b.received.back().second, Wire(60, 2));

  for (int i = 0; i < 500; ++i) link.Send(&a, Wire(4000, 7));
  EXPECT_EQ(link.in_flight(&a), 500u);
  sched.RunAll();
  EXPECT_EQ(b.received.size(), 803u);
  EXPECT_LE(link.buffer_slots(&a), 64u);
  EXPECT_LE(link.buffer_bytes(&a), 64u * 1024u);
}

TEST_F(LinkTest, CountsTraffic) {
  link.Restore();
  link.Send(&a, Wire{1, 2, 3, 4});
  link.Send(&b, Wire{5});
  EXPECT_EQ(link.messages_carried(), 2u);
  EXPECT_EQ(link.bytes_carried(), 5u);
}

TEST(LineFailureProcess, GeneratesFailuresAndRepairs) {
  Scheduler sched;
  Link link(sched, Duration::Millis(1));
  FakeEndpoint a, b;
  link.AttachA(&a, 0);
  link.AttachB(&b, 0);
  link.Restore();

  LineFailureProcess::Params params;
  params.mean_time_to_failure = Duration::Hours(2);
  params.mean_time_to_repair = Duration::Minutes(5);
  LineFailureProcess process(sched, link, params, /*seed=*/3);
  process.Start();
  sched.RunUntil(TimePoint::Origin() + Duration::Days(7));
  // ~84 failures expected over a week; allow wide slack.
  EXPECT_GT(process.failures(), 20u);
  EXPECT_LT(process.failures(), 300u);
  EXPECT_EQ(a.downs.size(), process.failures());
  // Repairs happen: final few restores counted.
  EXPECT_GE(a.ups.size(), a.downs.size() - 1);
}

TEST(LineFailureProcess, RateMultiplierSpeedsFailures) {
  auto failures_with = [](double multiplier) {
    Scheduler sched;
    Link link(sched, Duration::Millis(1));
    link.Restore();
    LineFailureProcess::Params params;
    params.mean_time_to_failure = Duration::Hours(6);
    LineFailureProcess process(sched, link, params, 5);
    process.SetRateMultiplier(multiplier);
    process.Start();
    sched.RunUntil(TimePoint::Origin() + Duration::Days(14));
    return process.failures();
  };
  EXPECT_GT(failures_with(8.0), 2 * failures_with(1.0));
}

TEST(CsuOscillator, BeatsAtConfiguredPeriod) {
  Scheduler sched;
  Link link(sched, Duration::Millis(1));
  FakeEndpoint a, b;
  link.AttachA(&a, 0);
  link.AttachB(&b, 0);
  link.Restore();

  CsuOscillator::Params params;
  params.beat_period = Duration::Seconds(30);
  params.carrier_loss = Duration::Millis(800);
  params.episode_length = Duration::Minutes(3);
  params.mean_episode_gap = Duration::Hours(2);
  CsuOscillator csu(sched, link, params, /*seed=*/11);
  csu.Start();
  sched.RunUntil(TimePoint::Origin() + Duration::Days(2));

  EXPECT_GT(csu.episodes(), 5u);
  // ~6 beats per 3-minute episode at a 30 s period.
  EXPECT_GT(csu.beats(), csu.episodes() * 4);
  EXPECT_LT(csu.beats(), csu.episodes() * 9);
  EXPECT_EQ(a.downs.size(), csu.beats());
  // The line always comes back after an episode.
  EXPECT_TRUE(link.up());
}

}  // namespace
}  // namespace iri::sim
