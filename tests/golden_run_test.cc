// Golden-run regression suite: three canonical multi-exchange scenarios,
// each locked to a committed digest (CRC-32 of the merged MRT byte stream
// plus the classifier bin counts) in tests/golden/. Every scenario is
// replayed at 1, 2 and 4 worker threads; all runs must reproduce the
// committed digest byte for byte, which pins two claims at once:
//
//   1. behaviour: no code change may silently move any scenario output;
//   2. determinism: the parallel multi-exchange runner's output is
//      independent of thread count and interleaving.
//
// Intentional behaviour changes re-bless the digests with:
//
//   ./golden_run_test --regen
//
// which rewrites tests/golden/*.digest in the source tree (commit the diff
// and explain the behaviour change in the PR). The determinism assertions
// still run under --regen.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/provenance.h"
#include "workload/multi_exchange_runner.h"

#ifndef IRI_GOLDEN_DIR
#error "IRI_GOLDEN_DIR must point at tests/golden (set by tests/CMakeLists.txt)"
#endif

namespace iri::workload {
namespace {

bool g_regen = false;

struct GoldenCase {
  const char* name;
  MultiExchangeConfig (*make)();
  // Expected health.storm.starts in the merged snapshot: 0 = the storm
  // detector must stay quiet, 1 = it must fire at least once, -1 = unpinned.
  int storms;
};

// Value of `counter <name> <n>` in the digest's embedded metrics snapshot;
// ~0 when the counter is missing entirely.
std::uint64_t DigestCounter(const std::string& digest,
                            const std::string& name) {
  const std::string key = "counter " + name + " ";
  const auto pos = digest.find(key);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::strtoull(digest.c_str() + pos + key.size(), nullptr, 10);
}

// Small on purpose: each scenario runs three times per suite invocation
// (and again under TSan in CI). Shapes cover the single-exchange classic,
// the paper's five-collector campaign, and the pathological Provider-I day.
MultiExchangeConfig BaselineSingle() {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 6;
  cfg.scenario.topology.seed = 1996;
  cfg.scenario.seed = 42;
  cfg.scenario.num_exchanges = 1;
  cfg.scenario.duration = Duration::Hours(6);
  return cfg;
}

MultiExchangeConfig FiveExchange() {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 8;
  cfg.scenario.topology.seed = 1997;
  cfg.scenario.seed = 5;
  cfg.scenario.num_exchanges = 5;
  cfg.scenario.duration = Duration::Hours(4);
  return cfg;
}

// The tentpole's smoke guard: the paper corpus shape itself —
// scale_denominator = 1 (the full 42k-prefix universe), 16 providers, all
// five collectors — over a window short enough for CI. Pins byte-for-byte
// behaviour AND thread-count independence of exactly the configuration
// bench/full_paper.cc times, so a perf-motivated change that moves any
// full-scale output byte fails here before it can skew the bench.
MultiExchangeConfig FullPaperSmoke() {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0;
  cfg.scenario.topology.num_providers = 16;
  cfg.scenario.topology.seed = 1996;
  cfg.scenario.seed = 1997;
  cfg.scenario.num_exchanges = 5;
  cfg.scenario.duration = Duration::Minutes(20);
  return cfg;
}

MultiExchangeConfig PathologicalDay() {
  MultiExchangeConfig cfg;
  cfg.scenario.topology.scale = 1.0 / 256;
  cfg.scenario.topology.num_providers = 6;
  cfg.scenario.topology.seed = 1998;
  cfg.scenario.seed = 259;
  cfg.scenario.num_exchanges = 2;
  cfg.scenario.duration = Duration::Hours(4);
  cfg.scenario.patho_enabled = true;
  cfg.scenario.patho_spray_rate = 120;
  return cfg;
}

std::string RunDigest(const GoldenCase& c, int threads) {
  MultiExchangeConfig cfg = c.make();
  cfg.threads = threads;
  MultiExchangeRunner runner(std::move(cfg));
  return runner.Run().Digest(c.name);
}

std::string GoldenPath(const GoldenCase& c) {
  return std::string(IRI_GOLDEN_DIR) + "/" + c.name + ".digest";
}

// Committed goldens are blessed with IRI_PROVENANCE=ON (the default). An
// OFF build must produce the same bytes minus the provenance digest section
// and the provenance.* gauges — nothing else may move — so strip exactly
// those from the committed text before comparing. Under ON this is the
// identity, keeping the committed bytes authoritative.
std::string StripProvenance(std::string digest) {
  if (obs::kProvenanceEnabled) return digest;
  const auto begin = digest.find("provenance.begin\n");
  if (begin != std::string::npos) {
    const std::string end_key = "provenance.end\n";
    const auto end = digest.find(end_key, begin);
    if (end != std::string::npos) {
      digest.erase(begin, end + end_key.size() - begin);
    }
  }
  const std::string gauge_key = "gauge provenance.";
  std::size_t pos = 0;
  while ((pos = digest.find(gauge_key, pos)) != std::string::npos) {
    const auto eol = digest.find('\n', pos);
    digest.erase(pos,
                 eol == std::string::npos ? std::string::npos : eol + 1 - pos);
  }
  return digest;
}

class GoldenRun : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenRun, MatchesCommittedDigestAtEveryThreadCount) {
  const GoldenCase& c = GetParam();
  const std::string serial = RunDigest(c, 1);

  // Determinism across the worker pool: identical output at 2 and 4
  // threads, interleaving be damned. threads=0 takes the runner default
  // (IRI_PARALLEL_EXCHANGES or hardware concurrency — ctest runs this
  // binary a second time with IRI_PARALLEL_EXCHANGES=4 to pin the pool).
  EXPECT_EQ(serial, RunDigest(c, 2)) << c.name << ": 2-thread run diverged";
  EXPECT_EQ(serial, RunDigest(c, 4)) << c.name << ": 4-thread run diverged";
  EXPECT_EQ(serial, RunDigest(c, 0)) << c.name << ": default-pool run diverged";

  // The digest embeds the merged deterministic metrics snapshot. Pin the
  // section's presence so an unwired registry can't pass vacuously as an
  // empty-vs-empty comparison.
  EXPECT_NE(serial.find("metrics.begin\n"), std::string::npos)
      << c.name << ": digest lost its metrics section";
  EXPECT_NE(serial.find("counter monitor.messages "), std::string::npos)
      << c.name << ": monitor instruments missing from the merged snapshot";
  EXPECT_NE(serial.find("counter sched.tasks "), std::string::npos)
      << c.name << ": scheduler instruments missing from the merged snapshot";

  // The streaming-telemetry section (series record count/bytes/CRC) and the
  // health detectors' instruments ride in the same digest: series JSONL and
  // health.* gauges are thread-count independent or these comparisons fail.
  EXPECT_NE(serial.find("timeseries.begin\n"), std::string::npos)
      << c.name << ": digest lost its timeseries section";
  EXPECT_NE(serial.find("counter health.ticks "), std::string::npos)
      << c.name << ": health instruments missing from the merged snapshot";
  const std::uint64_t storms = DigestCounter(serial, "health.storm.starts");
  if (c.storms == 0) {
    EXPECT_EQ(storms, 0u)
        << c.name << ": storm detector fired on a non-pathological scenario";
  } else if (c.storms > 0) {
    EXPECT_GE(storms, 1u)
        << c.name << ": storm detector missed the pathological incident";
  }

  const std::string path = GoldenPath(c);
  if (g_regen) {
    ASSERT_TRUE(obs::kProvenanceEnabled)
        << "re-bless goldens from an IRI_PROVENANCE=ON build (the default); "
        << "an OFF build would commit digests missing the provenance bytes";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serial;
    std::printf("[regen] wrote %s\n", path.c_str());
    return;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — run ./golden_run_test --regen and commit the result";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(StripProvenance(committed.str()), serial)
      << c.name << ": output drifted from the committed golden digest. If "
      << "the behaviour change is intentional, re-bless with --regen.";
}

INSTANTIATE_TEST_SUITE_P(
    Canonical, GoldenRun,
    ::testing::Values(GoldenCase{"baseline_single", &BaselineSingle, 0},
                      GoldenCase{"five_exchange", &FiveExchange, -1},
                      GoldenCase{"full_paper_smoke", &FullPaperSmoke, -1},
                      GoldenCase{"pathological_day", &PathologicalDay, 1}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace iri::workload

// Custom main so the binary accepts --regen (gtest_main stays unlinked
// because this archive member is never pulled once main is defined here).
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") iri::workload::g_regen = true;
  }
  return RUN_ALL_TESTS();
}
