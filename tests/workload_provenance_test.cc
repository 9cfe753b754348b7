// End-to-end causal-provenance coverage at the workload layer:
//
//   1. the ISSUE's acceptance floor — on the pathological_day scenario at
//      least 95% of classified pathological updates (AADup + WWDup) carry a
//      non-null root cause;
//   2. cause-id stability — the attribution JSON (ids, kinds, matrix) is
//      byte-identical at any exchange-thread count;
//   3. the compile-out / disable paths the digests must not see:
//      series_flush_interval = Duration() omits the timeseries digest
//      section entirely, IRI_TRACE=OFF leaves trace buffers empty, and
//      IRI_PROVENANCE=OFF keeps provenance.* out of snapshots and the
//      provenance section out of digests — byte-identical to a build that
//      never had the subsystem;
//   4. offline MRT replay has no cause sideband, so everything it
//      classifies lands unattributed (the replay-differential contract).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/monitor.h"
#include "core/report.h"
#include "mrt/log.h"
#include "obs/provenance.h"
#include "workload/multi_exchange_runner.h"

namespace iri::workload {
namespace {

MultiExchangeConfig PathologicalDay() {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 6;
  cfg.scenario.topology.seed = 1998;
  cfg.scenario.seed = 259;
  cfg.scenario.num_exchanges = 2;
  cfg.scenario.duration = Duration::Hours(2);
  cfg.scenario.patho_enabled = true;
  cfg.scenario.patho_spray_rate = 120;
  return cfg;
}

std::vector<obs::ExchangeAttribution> Attributions(
    const MultiExchangeResult& result) {
  std::vector<obs::ExchangeAttribution> attrs;
  attrs.reserve(result.exchanges.size());
  for (const auto& run : result.exchanges) attrs.push_back(run.attribution);
  return attrs;
}

TEST(Provenance, PathologicalDayAttributesAtLeast95Percent) {
  if (!obs::kProvenanceEnabled) GTEST_SKIP() << "IRI_PROVENANCE=OFF";
  MultiExchangeRunner runner(PathologicalDay());
  const MultiExchangeResult result = runner.Run();

  obs::AttributionMatrix combined;
  std::size_t causes = 0;
  for (const auto& run : result.exchanges) {
    combined.Merge(run.attribution.observed);
    causes += run.attribution.causes.size();
  }
  ASSERT_GT(causes, 0u) << "scenario injected no causes at all";
  ASSERT_EQ(combined.attributed() + combined.unattributed(),
            result.total_events)
      << "every classified event must be counted exactly once";

  // The acceptance floor: >= 95% of *pathological* updates (the paper's
  // AADup + WWDup) trace to a non-null root cause.
  const auto patho_share = [&combined](core::Category c) {
    return std::make_pair(
        combined.ClassAttributed(static_cast<std::size_t>(c)),
        combined.ClassTotal(static_cast<std::size_t>(c)));
  };
  const auto [aadup_attr, aadup_total] = patho_share(core::Category::kAADup);
  const auto [wwdup_attr, wwdup_total] = patho_share(core::Category::kWWDup);
  const std::uint64_t total = aadup_total + wwdup_total;
  const std::uint64_t attributed = aadup_attr + wwdup_attr;
  ASSERT_GT(total, 0u) << "pathological_day produced no pathological events";
  EXPECT_GE(static_cast<double>(attributed),
            0.95 * static_cast<double>(total))
      << "only " << attributed << " of " << total
      << " pathological updates carry a root cause";

  // The report surfaces must agree with the raw matrix and stay non-empty.
  const auto attrs = Attributions(result);
  const std::string text = core::FormatAttributionReport(attrs);
  EXPECT_NE(text.find("causal attribution"), std::string::npos);
  EXPECT_NE(text.find("patho_spray"), std::string::npos)
      << "the dominant injected fault kind is missing from the report";
  const std::string json = core::AttributionJson(attrs);
  EXPECT_NE(json.find("\"top_causes\""), std::string::npos);
  EXPECT_NE(json.find("\"depth_histogram\""), std::string::npos);
}

TEST(Provenance, AttributionIsIdenticalAcrossParallelismKnobs) {
  if (!obs::kProvenanceEnabled) GTEST_SKIP() << "IRI_PROVENANCE=OFF";
  const auto run_json = [](int threads) {
    MultiExchangeConfig cfg = PathologicalDay();
    cfg.scenario.duration = Duration::Hours(1);
    cfg.threads = threads;
    MultiExchangeRunner runner(std::move(cfg));
    return core::AttributionJson(Attributions(runner.Run()));
  };
  const std::string serial = run_json(1);
  EXPECT_EQ(serial, run_json(2)) << "exchange threads moved a cause";
  EXPECT_EQ(serial, run_json(4)) << "exchange threads moved a cause";
}

TEST(Provenance, ProvenanceGaugesTrackCompileSetting) {
  MultiExchangeConfig cfg = PathologicalDay();
  cfg.scenario.duration = Duration::Minutes(30);
  MultiExchangeRunner runner(std::move(cfg));
  const MultiExchangeResult result = runner.Run();
  const std::string snapshot = result.metrics.SnapshotText();
  // The label is embedded verbatim in the digest header, so it must not
  // contain the substring the OFF branch asserts absent.
  const std::string digest = result.Digest("gauge_compile_setting");
  if (obs::kProvenanceEnabled) {
    EXPECT_NE(snapshot.find("gauge provenance.causes "), std::string::npos);
    EXPECT_NE(snapshot.find("gauge provenance.events_attributed "),
              std::string::npos);
    EXPECT_NE(digest.find("provenance.begin\n"), std::string::npos);
    EXPECT_NE(digest.find("provenance.end\n"), std::string::npos);
  } else {
    // An OFF build must leave no registration residue anywhere: snapshots
    // and digests are byte-identical to a never-enabled build.
    EXPECT_EQ(snapshot.find("provenance"), std::string::npos);
    EXPECT_EQ(digest.find("provenance"), std::string::npos);
    for (const auto& run : result.exchanges) {
      EXPECT_TRUE(run.attribution.observed.Empty());
      EXPECT_TRUE(run.attribution.causes.empty());
    }
  }
}

TEST(Provenance, DisabledSeriesOmitsTimeseriesDigestSection) {
  MultiExchangeConfig cfg = PathologicalDay();
  cfg.scenario.duration = Duration::Minutes(30);
  cfg.scenario.series_flush_interval = Duration();  // disables telemetry

  MultiExchangeRunner runner(std::move(cfg));
  const MultiExchangeResult result = runner.Run();

  // A disabled flush interval produces zero records, so the digest must not
  // carry an empty timeseries section.
  EXPECT_EQ(result.total_series_records, 0u);
  EXPECT_EQ(result.Digest("series_off").find("timeseries.begin"),
            std::string::npos);
}

TEST(Provenance, TraceBuffersFollowTraceCompileSetting) {
  MultiExchangeConfig cfg = PathologicalDay();
  cfg.scenario.duration = Duration::Minutes(30);
  cfg.capture_trace = true;
  MultiExchangeRunner runner(std::move(cfg));
  const MultiExchangeResult result = runner.Run();
#if defined(IRI_TRACE_ENABLED) && IRI_TRACE_ENABLED
  if (obs::kProvenanceEnabled) {
    EXPECT_NE(result.merged_trace.find("cause_injected"), std::string::npos)
        << "cause allocations must emit trace events when both layers are on";
  }
#else
  EXPECT_TRUE(result.merged_trace.empty())
      << "IRI_TRACE=OFF must compile every emission site to nothing";
#endif
}

TEST(Provenance, OfflineReplayIsFullyUnattributed) {
  if (!obs::kProvenanceEnabled) GTEST_SKIP() << "IRI_PROVENANCE=OFF";
  MultiExchangeConfig cfg = PathologicalDay();
  cfg.scenario.duration = Duration::Minutes(30);
  MultiExchangeRunner runner(std::move(cfg));
  const MultiExchangeResult result = runner.Run();
  ASSERT_FALSE(result.exchanges.empty());

  // Replay the first exchange's MRT segment: the wire format carries no
  // cause bytes (mrt_crc32 pins that), so the offline classifier sees only
  // null tags.
  mrt::Reader reader(result.merged_mrt.segment(0));
  core::ExchangeMonitor offline;
  offline.Replay(reader);
  const obs::AttributionMatrix& prov = offline.classifier().provenance();
  EXPECT_EQ(prov.attributed(), 0u);
  EXPECT_EQ(prov.unattributed(), result.exchanges[0].events);
}

}  // namespace
}  // namespace iri::workload
