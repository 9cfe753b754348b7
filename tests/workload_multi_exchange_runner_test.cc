// The partitioned multi-exchange runner: decorrelated sub-seeds, fixed-order
// merge, and thread-count independence (the golden-run suite pins the same
// property against committed digests; these tests explain *why* it holds).
#include "workload/multi_exchange_runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "mrt/log.h"
#include "netbase/crc32.h"
#include "workload/scenario.h"

namespace iri::workload {
namespace {

MultiExchangeConfig SmallConfig(int exchanges) {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 6;
  cfg.scenario.topology.seed = 3;
  cfg.scenario.seed = 4;
  cfg.scenario.num_exchanges = exchanges;
  cfg.scenario.duration = Duration::Hours(3);
  return cfg;
}

TEST(ExchangeSubSeed, DeterministicAndDecorrelated) {
  std::set<std::uint64_t> seen;
  for (int e = 0; e < 64; ++e) {
    const std::uint64_t s = ExchangeSubSeed(42, e);
    EXPECT_EQ(s, ExchangeSubSeed(42, e)) << "sub-seed must be a pure function";
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 64u) << "sub-seeds must not collide";
  EXPECT_NE(ExchangeSubSeed(42, 0), ExchangeSubSeed(43, 0))
      << "different scenario seeds must shift every partition";
}

TEST(PartitionConfigFn, SingleExchangeWithDerivedSeed) {
  ScenarioConfig cfg;
  cfg.seed = 1234;
  cfg.num_exchanges = 5;
  cfg.patho_enabled = true;
  const ScenarioConfig part = PartitionConfig(cfg, 3);
  EXPECT_EQ(part.num_exchanges, 1);
  EXPECT_EQ(part.seed, ExchangeSubSeed(1234, 3));
  EXPECT_TRUE(part.patho_enabled) << "all other knobs carry over";
}

TEST(MultiExchangeRunner, ThreadCountDoesNotChangeAnyByte) {
  MultiExchangeResult serial = MultiExchangeRunner(SmallConfig(3)).Run();
  for (int threads : {2, 4}) {
    MultiExchangeConfig cfg = SmallConfig(3);
    cfg.threads = threads;
    MultiExchangeResult parallel = MultiExchangeRunner(std::move(cfg)).Run();
    ASSERT_EQ(parallel.exchanges.size(), serial.exchanges.size());
    EXPECT_EQ(parallel.merged_mrt, serial.merged_mrt)
        << "threads=" << threads;
    EXPECT_EQ(parallel.MrtCrc32(), serial.MrtCrc32());
    EXPECT_EQ(parallel.combined_classifier_totals,
              serial.combined_classifier_totals);
    EXPECT_EQ(parallel.Digest("t"), serial.Digest("t"));
    for (std::size_t e = 0; e < serial.exchanges.size(); ++e) {
      EXPECT_EQ(parallel.merged_mrt.segment(e), serial.merged_mrt.segment(e))
          << "exchange " << e << " threads=" << threads;
      EXPECT_EQ(parallel.exchanges[e].tasks_executed,
                serial.exchanges[e].tasks_executed);
    }
  }
}

TEST(MultiExchangeRunner, MergePreservesFixedExchangeOrder) {
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(3)).Run();
  ASSERT_EQ(result.exchanges.size(), 3u);
  ASSERT_EQ(result.merged_mrt.segment_count(), 3u);
  // The merged stream is the per-exchange segments back to back in index
  // order — verify by re-assembling it by hand: its size and its CRC must
  // be those of the concatenation.
  std::vector<std::uint8_t> reassembled;
  std::uint64_t events = 0;
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(result.exchanges[e].exchange, static_cast<int>(e));
    EXPECT_EQ(result.exchanges[e].sub_seed, ExchangeSubSeed(4, static_cast<int>(e)));
    EXPECT_GT(result.exchanges[e].events, 0u);
    const auto& segment = result.merged_mrt.segment(e);
    EXPECT_FALSE(segment.empty()) << "exchange " << e;
    reassembled.insert(reassembled.end(), segment.begin(), segment.end());
    events += result.exchanges[e].events;
  }
  EXPECT_EQ(result.merged_mrt.size(), reassembled.size());
  EXPECT_EQ(result.MrtCrc32(), Crc32(reassembled));
  EXPECT_EQ(result.total_events, events);
  EXPECT_EQ(result.combined.Total(), events);
}

TEST(MultiExchangeRunner, SeriesDigestMatchesTheScenarioText) {
  // One exchange: the digest's timeseries bytes and CRC, folded from the
  // partition's summary, must be those of the flusher's text when the same
  // partition runs directly.
  const MultiExchangeConfig cfg = SmallConfig(1);
  const MultiExchangeResult result = MultiExchangeRunner(cfg).Run();

  ExchangeScenario scenario(PartitionConfig(cfg.scenario, 0));
  scenario.Run();
  const std::string& text = scenario.series().buffer();
  ASSERT_FALSE(text.empty());

  char expect[64];
  std::snprintf(expect, sizeof(expect), "bytes=%zu\ncrc32=0x%08X\n",
                text.size(),
                Crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()}));
  const std::string digest = result.Digest("one");
  EXPECT_NE(digest.find(expect), std::string::npos) << digest;
  EXPECT_EQ(result.total_series_records, scenario.series().records());
}

TEST(MultiExchangeRunner, PartitionsAreDecorrelatedButSameUniverse) {
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(2)).Run();
  ASSERT_EQ(result.exchanges.size(), 2u);
  // Different sub-seeds ⇒ different event streams...
  EXPECT_NE(result.merged_mrt.segment(0), result.merged_mrt.segment(1));
  // ...over the same universe, so volumes stay statistically aligned.
  const double e0 = static_cast<double>(result.exchanges[0].events);
  const double e1 = static_cast<double>(result.exchanges[1].events);
  ASSERT_GT(e0, 100.0);
  EXPECT_NEAR(e1 / e0, 1.0, 0.5);
}

TEST(MultiExchangeRunner, PartitionSetupSeesEveryExchangeOnce) {
  MultiExchangeRunner runner(SmallConfig(3));
  std::vector<int> setup_hits(3, 0);
  std::vector<std::uint64_t> sink_events(3, 0);
  runner.SetPartitionSetup([&](int e, ExchangeScenario& scenario) {
    setup_hits[static_cast<std::size_t>(e)] += 1;
    EXPECT_EQ(scenario.num_exchanges(), 1);
    scenario.monitor().AddSink([&sink_events, e](const core::ClassifiedEvent&) {
      ++sink_events[static_cast<std::size_t>(e)];
    });
  });
  const MultiExchangeResult result = runner.Run();
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(setup_hits[e], 1);
    EXPECT_EQ(sink_events[e], result.exchanges[e].events);
  }
}

TEST(MultiExchangeRunner, PartitionTeardownSeesEachFinishedScenarioOnce) {
  // The teardown hook runs after the partition has run and after the
  // runner folded its series summary, so moving the text out there leaves
  // the summary intact.
  MultiExchangeRunner runner(SmallConfig(3));
  std::vector<std::uint64_t> events(3, 0);
  std::vector<std::string> series(3);
  runner.SetPartitionTeardown([&](int e, ExchangeScenario& scenario) {
    const auto i = static_cast<std::size_t>(e);
    events[i] += scenario.monitor().events_seen();
    series[i] = scenario.series().TakeBuffer();
  });
  const MultiExchangeResult result = runner.Run();
  for (std::size_t e = 0; e < 3; ++e) {
    const ExchangeRun& run = result.exchanges[e];
    EXPECT_EQ(events[e], run.events);
    EXPECT_EQ(series[e].size(), run.series_bytes);
    EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(series[e].data()),
                     series[e].size()}),
              run.series_crc32);
  }
}

TEST(MultiExchangeRunner, MrtSegmentsReplayToTheSameClassification) {
  // The offline path: each exchange's MRT segment replayed through a fresh
  // monitor must reproduce that exchange's live classifier bins exactly.
  const MultiExchangeResult result = MultiExchangeRunner(SmallConfig(2)).Run();
  for (const ExchangeRun& run : result.exchanges) {
    mrt::Reader reader(
        result.merged_mrt.segment(static_cast<std::size_t>(run.exchange)));
    core::ExchangeMonitor offline;
    const std::uint64_t replayed = offline.Replay(reader);
    EXPECT_EQ(replayed, run.messages) << "exchange " << run.exchange;
    EXPECT_EQ(offline.classifier().totals(), run.classifier_totals)
        << "exchange " << run.exchange;
    EXPECT_EQ(reader.crc_failures(), 0u);
  }
}

TEST(MultiExchangeRunner, CaptureMrtOffLeavesStreamEmptyButStatsIntact) {
  MultiExchangeConfig with = SmallConfig(2);
  MultiExchangeConfig without = SmallConfig(2);
  without.capture_mrt = false;
  const MultiExchangeResult a = MultiExchangeRunner(std::move(with)).Run();
  const MultiExchangeResult b = MultiExchangeRunner(std::move(without)).Run();
  EXPECT_TRUE(b.merged_mrt.empty());
  EXPECT_EQ(b.MrtCrc32(), 0u);
  EXPECT_GT(a.merged_mrt.size(), 0u);
  EXPECT_EQ(a.combined_classifier_totals, b.combined_classifier_totals)
      << "MRT capture must not perturb the simulation";
}

}  // namespace
}  // namespace iri::workload
