// Deterministic parallel execution of multi-exchange measurement campaigns.
//
// The paper's dataset comes from five independent exchange points (Mae-East,
// Sprint NAP, AADS, PacBell NAP, Mae-West) whose collectors never talk to
// each other — they only meet again in post-hoc analysis. That independence
// is an execution boundary: a num_exchanges=K scenario splits into K
// single-exchange partitions, each with its own sim::Scheduler, its own
// decorrelated RNG stream (ExchangeSubSeed), and private MRT/stats sinks.
// Partitions run on a small worker pool (sim::ParallelFor, sized by
// IRI_PARALLEL_EXCHANGES; 1 reproduces today's serial path) and their
// outputs are merged in fixed exchange order, so the result is bit-for-bit
// independent of thread count and interleaving. tests/golden_run_test.cc
// locks that claim against committed digests at 1, 2 and 4 threads.
//
// Captured bytes are held once. Each partition's MRT stream is moved out of
// its writer into one segment of MultiExchangeResult::merged_mrt, which is
// never concatenated; each partition's series text is folded into a
// (records, bytes, crc32) summary on its worker and dropped. The digest
// chains and combines those per-segment CRCs in exchange order.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "workload/scenario.h"

namespace iri::workload {

struct MultiExchangeConfig {
  // scenario.num_exchanges is the partition count (>= 1).
  ScenarioConfig scenario;
  // Worker threads; <= 0 means sim::DefaultParallelism() (the
  // IRI_PARALLEL_EXCHANGES environment variable or hardware concurrency).
  int threads = 0;
  // Capture each partition's MRT byte stream in memory (the merged stream
  // is what the golden digests checksum). Disable for pure-stats runs.
  bool capture_mrt = true;
  // Move each partition's structured trace buffer (obs/trace.h) into the
  // merged result. Off by default: traces are bulky and only diagnostics
  // want them.
  bool capture_trace = false;
};

// Everything one exchange partition produced.
struct ExchangeRun {
  int exchange = 0;
  std::uint64_t sub_seed = 0;
  core::CategoryCounts counts;
  std::array<std::uint64_t, core::kNumCategories> classifier_totals{};
  std::uint64_t messages = 0;        // UPDATE messages tapped at the monitor
  std::uint64_t events = 0;          // per-prefix events classified
  std::uint64_t tasks_executed = 0;  // this partition's scheduler events
  // This partition's metrics registry, copied (via Merge into an empty
  // registry) on the worker that owns the exchange. Only deterministic
  // instruments feed the merged snapshot, so the bytes are thread-count
  // independent.
  obs::Registry metrics;
  // Summary of this exchange's series JSONL (obs/timeseries.h), folded on
  // the worker when the partition ends; the text itself is then dropped
  // with the scenario. The digest combines the CRCs in exchange order
  // (Crc32Combine), which equals the CRC of the texts back to back.
  std::uint64_t series_records = 0;
  std::uint64_t series_bytes = 0;
  std::uint32_t series_crc32 = 0;
  // The exchange's causal attribution: the classifier's merged provenance
  // matrix plus the cause table minted by this partition's scenario. Cause
  // ids are partition-local (dense, allocation-ordered), so attribution is
  // reported per exchange rather than renumbered into a global space.
  // Empty when IRI_PROVENANCE=OFF.
  obs::ExchangeAttribution attribution;
};

// The merged MRT stream as a list of per-exchange segments, in exchange
// order. Each segment is a partition writer's buffer, moved in whole, so
// this list is the only owner of the captured bytes. The logical stream is
// the segments back to back; it is never concatenated in memory. Replay
// segment by segment: exchanges reuse collector-local peer ids, so one
// classifier must not be fed two collectors' streams.
class MrtSegments {
 public:
  using Segment = std::vector<std::uint8_t>;

  void Append(Segment segment) {
    bytes_ += segment.size();
    segments_.push_back(std::move(segment));
  }

  // Segment `e` holds exchange e's stream (empty when capture_mrt is off).
  const Segment& segment(std::size_t e) const { return segments_.at(e); }
  std::size_t segment_count() const { return segments_.size(); }
  auto begin() const { return segments_.begin(); }
  auto end() const { return segments_.end(); }

  // Total bytes over all segments.
  std::size_t size() const { return bytes_; }
  bool empty() const { return bytes_ == 0; }

  // Segment-wise equality (same exchanges, same bytes each).
  friend bool operator==(const MrtSegments&, const MrtSegments&) = default;

 private:
  std::vector<Segment> segments_;
  std::size_t bytes_ = 0;
};

// Per-exchange results plus the fixed-order merge.
struct MultiExchangeResult {
  std::vector<ExchangeRun> exchanges;  // index == exchange id
  core::CategoryCounts combined;
  std::array<std::uint64_t, core::kNumCategories> combined_classifier_totals{};
  // Per-exchange MRT streams in exchange order, one segment each.
  MrtSegments merged_mrt;
  // Per-exchange registries merged on the calling thread in exchange order
  // (the CategoryCounts::Merge pattern): counters and histograms sum, gauges
  // add — so a merged peak gauge is the sum of per-exchange peaks, not a
  // global peak. Snapshot bytes are identical at any worker count.
  obs::Registry metrics;
  // Per-exchange JSONL traces concatenated in exchange order (empty unless
  // capture_trace). Exchanges reuse collector-local names, so consumers
  // should replay segment by segment like merged_mrt.
  std::string merged_trace;
  std::uint64_t total_series_records = 0;
  std::uint64_t total_messages = 0;
  std::uint64_t total_events = 0;

  // CRC-32 of the merged stream, chained over the segments in order.
  std::uint32_t MrtCrc32() const;

  // Canonical digest text (MRT CRC-32 + classifier bin counts) used by the
  // golden-run regression suite; any byte of drift fails the comparison.
  std::string Digest(const std::string& scenario_name) const;
};

class MultiExchangeRunner {
 public:
  // Runs on whichever worker owns `exchange`, so it must only touch state
  // private to that exchange (e.g. a per-exchange sink slot).
  using PartitionHook = std::function<void(int exchange, ExchangeScenario&)>;

  explicit MultiExchangeRunner(MultiExchangeConfig config)
      : config_(std::move(config)) {}

  // Called after each partition's scenario is constructed, before it runs.
  void SetPartitionSetup(PartitionHook setup) { setup_ = std::move(setup); }
  // Called after each partition has run and the runner has taken its
  // outputs, just before the scenario is destroyed: the last chance to read
  // (or move out) what the runner does not keep, such as the series text.
  void SetPartitionTeardown(PartitionHook teardown) {
    teardown_ = std::move(teardown);
  }

  // Generates the shared universe once, runs every partition to the horizon,
  // and merges in exchange order. Safe to call once per runner.
  MultiExchangeResult Run();

  const MultiExchangeConfig& config() const { return config_; }

 private:
  MultiExchangeConfig config_;
  PartitionHook setup_;
  PartitionHook teardown_;
};

}  // namespace iri::workload
