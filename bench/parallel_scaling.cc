// Parallel multi-exchange scaling: updates/sec for the five-collector
// cross-exchange campaign, serial vs. N worker threads, emitted as
// BENCH_parallel.json so CI can track the perf trajectory run over run.
//
// The runner's determinism guarantee is asserted inline: every thread count
// must produce the identical merged digest, or the speedup numbers are
// measuring two different computations and the bench aborts.
//
// Timing uses wall-clock deliberately (this is a benchmark driver, not
// simulation code; bench/ is outside the determinism lint's scope).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "sim/parallel.h"
#include "workload/multi_exchange_runner.h"

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iri;
  auto flags = bench::Flags::Parse(argc, argv, /*days=*/0.5,
                                   /*scale_denominator=*/64,
                                   /*providers=*/12);
  std::string out_path = "BENCH_parallel.json";
  int max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      max_threads = std::atoi(argv[i] + 10);
    }
  }
  bench::PrintHeader("Parallel multi-exchange scaling (5 collectors)", flags);

  workload::MultiExchangeConfig base;
  base.scenario = flags.ToScenarioConfig();
  base.scenario.num_exchanges = 5;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  struct Run {
    int threads;
    double seconds;
    std::uint64_t updates;
    std::uint64_t sim_events;
  };
  std::vector<Run> runs;
  std::string reference_digest;

  for (int threads : thread_counts) {
    workload::MultiExchangeConfig cfg = base;
    cfg.threads = threads;
    const auto start = std::chrono::steady_clock::now();
    workload::MultiExchangeRunner runner(std::move(cfg));
    const workload::MultiExchangeResult result = runner.Run();
    const double seconds = SecondsSince(start);

    const std::string digest = result.Digest("parallel_scaling");
    if (reference_digest.empty()) {
      reference_digest = digest;
    } else if (digest != reference_digest) {
      std::fprintf(stderr,
                   "FATAL: %d-thread run produced a different digest than "
                   "the serial run — determinism broken, timings invalid\n",
                   threads);
      return 1;
    }

    std::uint64_t sim_events = 0;
    for (const auto& ex : result.exchanges) sim_events += ex.tasks_executed;
    runs.push_back({threads, seconds, result.total_events, sim_events});
    std::printf("%d thread(s): %8.2fs  %10.0f updates/sec  (%llu updates)\n",
                threads, seconds,
                static_cast<double>(result.total_events) / seconds,
                static_cast<unsigned long long>(result.total_events));
  }

  const double serial_rate =
      static_cast<double>(runs.front().updates) / runs.front().seconds;
  const double best_rate =
      static_cast<double>(runs.back().updates) / runs.back().seconds;
  std::printf("speedup at %d threads: %.2fx (default parallelism: %d)\n",
              runs.back().threads, best_rate / serial_rate,
              sim::DefaultParallelism());

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "parallel_scaling")
      .Field("exchanges", 5)
      .Field("scale_denominator", flags.scale_denominator, 0)
      .Field("days", flags.days, 3)
      .Field("providers", flags.providers)
      .Field("seed", flags.seed)
      .Field("default_parallelism", sim::DefaultParallelism());
  json.BeginArray("runs");
  for (const Run& r : runs) {
    json.BeginObject(nullptr, /*compact=*/true)
        .Field("threads", r.threads)
        .Field("seconds", r.seconds, 4)
        .Field("updates", r.updates)
        .Field("updates_per_sec", static_cast<double>(r.updates) / r.seconds,
               1)
        .Field("sim_events", r.sim_events)
        .EndObject();
  }
  json.EndArray();
  json.Field("speedup_vs_serial", best_rate / serial_rate, 3).EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
