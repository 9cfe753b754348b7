// Repository benchmark program: runs one workload and prints line records
// that perfbench/run.py turns into the benchmark's metrics.
//
//   iri_perfbench --workload campaign|replay --seed N --seconds S
//                 --trace 0|1 [--tiny]
//
// It reaches the simulator only through its public calls
// (topology::GenerateUniverse, workload::ExchangeScenario / RunUntil,
// MultiExchangeRunner::Run / Digest, mrt::Reader and Record::DecodeMessage,
// core::ExchangeMonitor::Replay and the analysis spectra) and reads the
// profile.* counters the program already keeps.
//
// Records, one per line, fields separated by single spaces:
//   stamp <key> <value>                       build and option stamp
//   setup <input> <seconds>                   one per set-up sample
//   slice <rep> <part> <hour> <wall_s> <rss_mb>
//                                             wall time of one simulated
//                                             hour of one exchange partition
//   rep <rep> <input> <wall_s> <tail_s> <events> <simdays>
//                                             one per timed repetition;
//                                             <input> is the rotating
//                                             scenario seed's index and
//                                             <tail_s> the timed work after
//                                             the last hour (replay's
//                                             analysis; 0 elsewhere)
//   peak_rss_mb <value>                       ru_maxrss after the timed phase
//   check <name> <attempted> <failed>         correctness checks, at exit
//   layer <name> <value>                      a per-layer figure (--trace 1)
//   snap counter|gauge <name> <value>         registry instrument (--trace 1)
//   span <id> <parent> <name> <start_ns> <end_ns> <items>
//                                             benchmark span (--trace 1),
//                                             written at exit
//
// With --trace 0 nothing is profiled: those runs give the end-to-end
// numbers. --trace 1 runs the workload untraced, traced (wall-clock
// profile sites plus the spans above), with telemetry off and, for the
// campaign, on min(5, nproc) workers, each arm several times interleaved,
// and cross-checks their outputs.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "analysis/series.h"
#include "analysis/spectrum.h"
#include "analysis/ssa.h"
#include "bgp/message.h"
#include "core/classifier.h"
#include "core/monitor.h"
#include "core/stats.h"
#include "mrt/log.h"
#include "netbase/crc32.h"
#include "obs/provenance.h"
#include "topology/universe.h"
#include "workload/multi_exchange_runner.h"
#include "workload/scenario.h"

namespace {

using namespace iri;
using Clock = std::chrono::steady_clock;

const Clock::time_point kProgramStart = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kProgramStart)
      .count();
}

double NowS() { return static_cast<double>(NowNs()) / 1e9; }

double RssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- spans -----------------------------------------------------------------

// Benchmark-side spans: name, start, end, parent. Kept in memory and printed
// at exit; disabled (every call a no-op) in untraced runs.
class Spans {
 public:
  void Enable() { on_ = true; }

  int Open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{id, stack_.empty() ? -1 : stack_.back(), name, NowNs(), 0, 0});
    stack_.push_back(id);
    return id;
  }
  void Close(int id, std::uint64_t items) {
    if (id < 0) return;
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = NowNs();
    span.items = items;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  void Print() const {
    for (const Span& s : spans_) {
      std::printf("span %d %d %s %lld %lld %llu\n", s.id, s.parent,
                  s.name.c_str(), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns),
                  static_cast<unsigned long long>(s.items));
    }
  }

 private:
  struct Span {
    int id;
    int parent;
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t items;
  };
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Spans g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.Open(name)) {}
  ~SpanScope() { g_spans.Close(id_, items_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_items(std::uint64_t n) { items_ = n; }

 private:
  int id_;
  std::uint64_t items_ = 0;
};

// --- records ---------------------------------------------------------------

// Correctness checks, tallied by name and printed once at exit.
struct CheckTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};
std::map<std::string, CheckTally> g_checks;

void Check(const char* name, bool ok) {
  CheckTally& tally = g_checks[name];
  ++tally.attempted;
  if (!ok) ++tally.failed;
}

void PrintChecks() {
  for (const auto& [name, tally] : g_checks) {
    std::printf("check %s %llu %llu\n", name.c_str(),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
  }
}

void Layer(const char* name, double value) {
  std::printf("layer %s %.9g\n", name, value);
}

void Snapshot(const obs::Registry& registry) {
  const std::string text = registry.SnapshotText(/*include_wall_clock=*/true);
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = text.find('\n', pos);
    const std::string line = text.substr(pos, end - pos);
    if (line.rfind("counter ", 0) == 0 || line.rfind("gauge ", 0) == 0) {
      std::printf("snap %s\n", line.c_str());
    }
    pos = end == std::string::npos ? text.size() : end + 1;
  }
}

void PrintStamps() {
  std::printf("stamp compiler gcc-%s\n", __VERSION__);
  std::printf("stamp build_type %s\n", IRI_BENCH_BUILD_TYPE);
  std::printf("stamp sanitize %s\n",
              std::strlen(IRI_BENCH_SANITIZE) ? IRI_BENCH_SANITIZE : "none");
#if defined(IRI_TRACE_ENABLED) && IRI_TRACE_ENABLED
  std::printf("stamp IRI_TRACE ON\n");
#else
  std::printf("stamp IRI_TRACE OFF\n");
#endif
  std::printf("stamp IRI_PROVENANCE %s\n",
              obs::kProvenanceEnabled ? "ON" : "OFF");
  std::printf("stamp hardware_threads %u\n",
              std::thread::hardware_concurrency());
}

// --- workload shapes -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1996;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
};

// Every workload watches one fixed universe (the collectors all watched the
// same Internet); --seed drives the scenario's instability processes. The
// universe's draw of stateless and pathological providers moves event
// volume by +-30% between universe seeds, which would swamp any change the
// benchmark is meant to resolve.
constexpr std::uint64_t kUniverseSeed = 1996;

// Timed repetitions rotate over scenario seeds derived from --seed, so one
// run averages several instability draws; each seed runs at least twice,
// which pins that its output repeats exactly. Replay's patho incident moves
// event volume by +-15% per seed, so replay averages six draws. The
// campaign already averages five exchanges' draws, so it repeats one seed,
// as often as the run allows.
int Inputs(const Options& opt) { return opt.workload == "replay" ? 6 : 1; }

// Set-up samples taken before each timed repetition of the campaign
// (replay's set-up samples are the simulations of its logs).
constexpr int kSetupsPerRep = 3;

// Rounds of the interleaved arms of a --trace 1 run.
constexpr int kTraceRounds = 3;

workload::ScenarioConfig BaseConfig(const Options& opt, int input,
                                    double scale_den, int providers,
                                    double days) {
  workload::ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / (opt.tiny ? 256 : scale_den);
  cfg.topology.num_providers = opt.tiny ? 6 : providers;
  cfg.topology.seed = kUniverseSeed;
  cfg.seed = workload::ExchangeSubSeed(opt.seed, input);
  cfg.duration = Duration::Days(days);
  return cfg;
}

// The full_paper shape: 5 exchanges at scale 1, 16 providers.
workload::ScenarioConfig CampaignConfig(const Options& opt, int input) {
  workload::ScenarioConfig cfg =
      BaseConfig(opt, input, 1, 16, opt.tiny ? 0.25 : 1);
  cfg.num_exchanges = opt.tiny ? 2 : 5;
  return cfg;
}

// The iri_analyze input: 1 exchange at scale 1 with the Table-1
// pathological ISP incident.
workload::ScenarioConfig ReplayConfig(const Options& opt, int input) {
  workload::ScenarioConfig cfg =
      BaseConfig(opt, input, 1, 16, opt.tiny ? 0.5 : 2);
  cfg.patho_enabled = true;
  return cfg;
}

int Hours(const workload::ScenarioConfig& cfg) {
  return static_cast<int>(std::llround(cfg.duration.ToHours()));
}

double SimDays(const workload::ScenarioConfig& cfg) {
  return cfg.duration.ToHours() / 24.0;
}

bool BinsSumToEvents(const std::array<std::uint64_t, core::kNumCategories>& b,
                     std::uint64_t events) {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : b) sum += n;
  return sum == events;
}

// The figure for repeated runs of the same work, as run.py's low() explains.
double Low(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// Wall-clock and RSS marks at simulated-hour boundaries. Mark h is the end
// of hour h-1; mark 0 is taken just before the first hour runs.
struct Mark {
  double wall_s;
  double rss_mb;
};

Mark MarkNow() { return Mark{NowS(), RssMb()}; }

// Marks taken from a scheduler task the benchmark arms in a runner
// partition. The task reads no simulation state and draws no randomness,
// so the simulated bytes are unchanged (only the scheduler's own task
// counters see it).
class HourMarks {
 public:
  void Arm(sim::Scheduler& sched, int hours) {
    marks_.reserve(static_cast<std::size_t>(hours) + 1);
    marks_.push_back(MarkNow());
    sched_ = &sched;
    hours_ = hours;
    ArmHour(1);
  }
  std::vector<Mark>& marks() { return marks_; }

 private:
  void ArmHour(int h) {
    sched_->At(TimePoint::Origin() + Duration::Hours(h), [this, h] {
      marks_.push_back(MarkNow());
      if (h < hours_) ArmHour(h + 1);
    });
  }
  sim::Scheduler* sched_ = nullptr;
  int hours_ = 0;
  std::vector<Mark> marks_;
};

// One timed repetition: wall time, classified events, per-partition hour
// marks, and what the correctness checks compare.
struct Run {
  double wall_s = 0;
  double tail_s = 0;  // timed work after the last hour mark
  std::uint64_t events = 0;
  std::vector<std::vector<Mark>> marks;  // [partition][hour boundary]
  std::string digest;
  std::uint32_t mrt_crc = 0;
  std::uint64_t mrt_bytes = 0;
  std::uint64_t series_records = 0;
  std::unique_ptr<obs::Registry> metrics;
};

void PrintRep(int rep, int input, const Run& run, double simdays) {
  for (std::size_t part = 0; part < run.marks.size(); ++part) {
    const std::vector<Mark>& m = run.marks[part];
    for (std::size_t h = 1; h < m.size(); ++h) {
      std::printf("slice %d %zu %zu %.9f %.3f\n", rep, part, h - 1,
                  m[h].wall_s - m[h - 1].wall_s, m[h].rss_mb);
    }
  }
  std::printf("rep %d %d %.9f %.9f %llu %.6f\n", rep, input, run.wall_s,
              run.tail_s, static_cast<unsigned long long>(run.events),
              simdays);
}

// The CPUs this process may run on, in index order, as they were before the
// benchmark pinned itself anywhere.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

// Pins the process to the turn-th allowed CPU, round robin; with
// turn < 0, releases it to every allowed CPU. On a shared VM each vCPU has
// phases of tens of seconds in which it runs ~1.5x slower, out of step with
// the others, so work that stays on one CPU measures mostly that CPU's
// phase; rotating samples all of them.
void PinTo(int turn) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (turn < 0) {
    for (const int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[static_cast<std::size_t>(turn) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// Repeats `run_one(rep, input)` over the rotating inputs until the next
// repetition would overrun --seconds; every input runs at least twice.
// Each repetition runs pinned to the next allowed CPU in turn (see PinTo).
template <typename RunOne>
void TimedLoop(const Options& opt, RunOne&& run_one) {
  const int inputs = Inputs(opt);
  const double t_start = NowS();
  double last = 0;
  for (int rep = 0;
       rep < 2 * inputs ||
       (rep < 1000 && NowS() - t_start + last <= opt.seconds);
       ++rep) {
    PinTo(rep);
    const double t0 = NowS();
    run_one(rep, rep % inputs);
    last = NowS() - t0;
  }
  std::printf("peak_rss_mb %.3f\n", PeakRssMb());
}

// Checks a repetition's digest against the first run of the same input.
void CheckRepeat(std::vector<std::string>& first, int input,
                 const std::string& digest) {
  std::string& slot = first[static_cast<std::size_t>(input)];
  if (slot.empty()) {
    slot = digest;
  } else {
    Check("digest_repeat", digest == slot);
  }
}

// Everything before the first simulated event: the universe and one
// scenario per exchange partition.
void SetupOnce(const workload::ScenarioConfig& cfg) {
  topology::Universe universe;
  {
    SpanScope span("topology.generate");
    universe = topology::GenerateUniverse(cfg.topology, cfg.duration);
  }
  const int k = std::max(1, cfg.num_exchanges);
  for (int e = 0; e < k; ++e) {
    SpanScope span("workload.scenario_ctor");
    workload::ExchangeScenario scenario(
        k == 1 ? cfg : workload::PartitionConfig(cfg, e), universe);
  }
}

// Takes `n` set-up samples of `cfg`. Each starts from a trimmed heap, as in
// a fresh process: otherwise whether glibc kept the previous sample's pages
// (its trim and mmap thresholds adapt to the allocation pattern, so to the
// seed) decides whether a sample pays its page faults, and the figure flips
// between the two cases (0.4 ms or 1.8 ms at 1/64 scale).
void MeasureSetup(const workload::ScenarioConfig& cfg, int input, int n) {
  for (int r = 0; r < n; ++r) {
    malloc_trim(0);
    SpanScope span("setup");
    const double t0 = NowS();
    SetupOnce(cfg);
    std::printf("setup %d %.9f\n", input, NowS() - t0);
  }
}

// --- campaign --------------------------------------------------------------

Run RunCampaignOnce(const workload::ScenarioConfig& scenario, int threads) {
  workload::MultiExchangeConfig cfg;
  cfg.scenario = scenario;
  cfg.threads = threads;
  cfg.capture_mrt = true;
  std::vector<HourMarks> hours(
      static_cast<std::size_t>(scenario.num_exchanges));
  workload::MultiExchangeRunner runner(cfg);
  runner.SetPartitionSetup(
      [&hours, n = Hours(scenario)](int e, workload::ExchangeScenario& s) {
        hours[static_cast<std::size_t>(e)].Arm(s.scheduler(), n);
      });
  Run out;
  const double t0 = NowS();
  workload::MultiExchangeResult result;
  {
    SpanScope span("workload.runner_run");
    result = runner.Run();
    span.set_items(result.total_events);
  }
  out.wall_s = NowS() - t0;
  {
    SpanScope span("workload.digest");
    out.digest = result.Digest("campaign");
  }
  Check("bins_sum_to_events",
        BinsSumToEvents(result.combined_classifier_totals,
                        result.total_events) &&
            result.combined.Total() == result.total_events);
  for (HourMarks& h : hours) out.marks.push_back(std::move(h.marks()));
  out.events = result.total_events;
  out.mrt_crc = result.MrtCrc32();
  out.mrt_bytes = result.merged_mrt.size();
  out.series_records = result.total_series_records;
  out.metrics = std::make_unique<obs::Registry>(std::move(result.metrics));
  return out;
}

// --trace 1 for the campaign: untraced, traced (wall-clock profile sites
// plus spans), telemetry-off and min(5, nproc)-worker runs. The arms run
// interleaved for kTraceRounds rounds, each pinned to the next CPU in turn
// (the parallel arm on all of them), and their ratios are ratios of the
// arms' Low() figures. The first round's runs give the slices, spans and
// snapshot.
void TracedCampaign(const workload::ScenarioConfig& cfg) {
  const int workers = std::max(
      1, std::min(cfg.num_exchanges,
                  static_cast<int>(std::thread::hardware_concurrency())));
  Layer("parallel_workers", workers);
  MeasureSetup(cfg, 0, kSetupsPerRep);
  workload::ScenarioConfig traced_cfg = cfg;
  traced_cfg.profile_wall_clock = true;
  workload::ScenarioConfig quiet_cfg = cfg;
  quiet_cfg.series_flush_interval = Duration();
  std::vector<double> plain_s, traced_s, quiet_s, parallel_s;
  std::vector<std::string> first(1);
  int turn = 0;
  for (int round = 0; round < kTraceRounds; ++round) {
    PinTo(turn++);
    const Run plain = RunCampaignOnce(cfg, /*threads=*/1);
    PinTo(turn++);
    Run traced;
    {
      SpanScope span("timed");
      traced = RunCampaignOnce(traced_cfg, /*threads=*/1);
    }
    PinTo(turn++);
    const Run quiet = RunCampaignOnce(quiet_cfg, /*threads=*/1);
    PinTo(-1);
    const Run parallel = RunCampaignOnce(cfg, workers);
    CheckRepeat(first, 0, plain.digest);
    Check("traced_digest", traced.digest == plain.digest);
    Check("telemetry_off_mrt_crc", quiet.mrt_crc == plain.mrt_crc);
    Check("parallel_digest", parallel.digest == plain.digest);
    plain_s.push_back(plain.wall_s);
    traced_s.push_back(traced.wall_s);
    quiet_s.push_back(quiet.wall_s);
    parallel_s.push_back(parallel.wall_s);
    if (round == 0) {
      PrintRep(0, 0, plain, SimDays(cfg));
      PrintRep(1, 0, traced, SimDays(cfg));
      Snapshot(*traced.metrics);
      Layer("mrt.capture_bytes", static_cast<double>(traced.mrt_bytes));
      Layer("obs.series_records",
            static_cast<double>(traced.series_records));
    }
  }
  Layer("wall_untraced_s", Low(plain_s));
  Layer("wall_traced_s", Low(traced_s));
  Layer("wall_telemetry_off_s", Low(quiet_s));
  Layer("sim.parallel_speedup", Low(plain_s) / Low(parallel_s));
}

int Campaign(const Options& opt) {
  if (opt.trace) {
    g_spans.Enable();
    TracedCampaign(CampaignConfig(opt, 0));
    return 0;
  }
  std::vector<std::string> first(static_cast<std::size_t>(Inputs(opt)));
  TimedLoop(opt, [&](int rep, int input) {
    const workload::ScenarioConfig cfg = CampaignConfig(opt, input);
    MeasureSetup(cfg, input, kSetupsPerRep);
    const Run run = RunCampaignOnce(cfg, /*threads=*/1);
    PrintRep(rep, input, run, SimDays(cfg));
    CheckRepeat(first, input, run.digest);
  });
  return 0;
}

// --- replay ----------------------------------------------------------------

// The simulated input log plus what the live monitor saw while writing it.
struct ReplayInput {
  std::vector<std::uint8_t> log;
  std::vector<std::size_t> hour_offsets;  // hour h is [off[h], off[h+1])
  TimePoint end;
  std::uint32_t crc = 0;
  std::array<std::uint64_t, core::kNumCategories> live_bins{};
  std::uint64_t live_events = 0;
  std::uint64_t live_messages = 0;
};

// Simulates the replay input and prints its set-up sample: universe,
// scenario and the simulated log, written one simulated hour per MRT
// writer so the replay can take it an hour at a time.
ReplayInput SimulateLog(const workload::ScenarioConfig& cfg, int input) {
  malloc_trim(0);  // from a trimmed heap, as MeasureSetup explains
  SpanScope setup("setup");
  ReplayInput in;
  const double t0 = NowS();
  topology::Universe universe;
  {
    SpanScope span("topology.generate");
    universe = topology::GenerateUniverse(cfg.topology, cfg.duration);
  }
  std::unique_ptr<workload::ExchangeScenario> scenario;
  {
    SpanScope span("workload.scenario_ctor");
    scenario = std::make_unique<workload::ExchangeScenario>(
        cfg, std::move(universe));
  }
  {
    SpanScope span("workload.simulate_log");
    in.hour_offsets.push_back(0);
    for (int h = 1; h <= Hours(cfg); ++h) {
      mrt::Writer writer;
      scenario->monitor().SetMrtWriter(&writer);
      scenario->RunUntil(TimePoint::Origin() + Duration::Hours(h));
      scenario->monitor().SetMrtWriter(nullptr);
      in.log.insert(in.log.end(), writer.buffer().begin(),
                    writer.buffer().end());
      in.hour_offsets.push_back(in.log.size());
    }
  }
  std::printf("setup %d %.9f\n", input, NowS() - t0);
  in.end = TimePoint::Origin() + cfg.duration;
  in.crc = Crc32(in.log);
  in.live_bins = scenario->monitor().classifier().totals();
  in.live_events = scenario->monitor().events_seen();
  in.live_messages = scenario->monitor().messages_seen();
  return in;
}

// The iri_analyze path: MRT log -> monitor with category and time-bin
// sinks, replayed one simulated hour at a time, then the spectra of the
// 10-minute instability series. The digest is the analysis output.
Run ReplayOnce(const ReplayInput& in, obs::Registry* registry) {
  Run out;
  core::ExchangeMonitor monitor;
  if (registry != nullptr) monitor.AttachMetrics(registry);
  core::CategoryCounts counts;
  core::TimeBinner binner(Duration::Minutes(10));
  monitor.AddSink([&](const core::ClassifiedEvent& ev) {
    counts.Add(ev);
    if (core::IsInstability(ev.category)) binner.Add(ev.event.time);
  });
  std::uint64_t messages = 0;
  std::uint64_t crc_failures = 0;
  std::vector<Mark> marks{MarkNow()};
  {
    SpanScope span("core.monitor_replay");
    const std::vector<std::size_t>& off = in.hour_offsets;
    for (std::size_t h = 0; h + 1 < off.size(); ++h) {
      mrt::Reader reader(std::span<const std::uint8_t>(
          in.log.data() + off[h], off[h + 1] - off[h]));
      messages += monitor.Replay(reader);
      crc_failures += reader.crc_failures();
      marks.push_back(MarkNow());
    }
    span.set_items(monitor.events_seen());
  }
  bool finite = true;
  {
    SpanScope analysis("analysis");
    binner.ExtendTo(in.end - Duration::Millis(1));
    const analysis::Series x =
        analysis::DetrendedLog({binner.bins().begin(), binner.bins().end()});
    std::vector<analysis::SpectrumPoint> spectrum;
    {
      SpanScope span("analysis.spectrum");
      spectrum = analysis::CorrelogramSpectrum(x, x.size() / 3);
      span.set_items(x.size());
    }
    analysis::BurgModel burg;
    {
      SpanScope span("analysis.burg");
      burg = analysis::BurgFit(x, std::min<std::size_t>(x.size() / 4, 48));
      span.set_items(x.size());
    }
    std::vector<analysis::SsaComponent> components;
    {
      SpanScope span("analysis.ssa");
      components = analysis::Ssa(x, x.size() / 4).components();
      span.set_items(x.size());
    }
    std::vector<double> values;
    for (const auto& p : analysis::FindPeaks(spectrum, 3)) {
      values.push_back(p.frequency);
      values.push_back(p.power);
    }
    values.push_back(burg.noise_variance);
    if (!components.empty()) {
      values.push_back(components.front().variance_fraction);
    }
    finite = !spectrum.empty() && !components.empty();
    char num[32];
    for (const double v : values) {
      finite = finite && std::isfinite(v);
      std::snprintf(num, sizeof(num), "%.17g ", v);
      out.digest += num;
    }
  }
  out.wall_s = NowS() - marks.front().wall_s;
  out.tail_s = out.wall_s - (marks.back().wall_s - marks.front().wall_s);
  out.marks.push_back(std::move(marks));
  const auto& bins = monitor.classifier().totals();
  out.events = monitor.events_seen();
  Check("bins_sum_to_events",
        BinsSumToEvents(bins, out.events) && counts.Total() == out.events);
  Check("replay_matches_live", bins == in.live_bins &&
                                   out.events == in.live_events &&
                                   messages == in.live_messages);
  Check("mrt_crc_clean", crc_failures == 0);
  Check("analysis_finite", finite);
  return out;
}

// Replay's layer passes over one log: the MRT reader alone, then the
// reader plus the decoder ExchangeMonitor::Replay calls
// (Record::DecodeMessage), counting UPDATEs as Replay does. Returns the
// pass's wall seconds.
double ReadPass(const ReplayInput& in) {
  SpanScope span("mrt.read");
  const double t0 = NowS();
  mrt::Reader reader(in.log);
  std::uint64_t records = 0;
  while (reader.Next()) ++records;
  span.set_items(records);
  return NowS() - t0;
}

double ReadDecodePass(const ReplayInput& in) {
  SpanScope span("bgp.codec.replay_decode");
  const double t0 = NowS();
  mrt::Reader reader(in.log);
  std::uint64_t updates = 0;
  while (auto rec = reader.Next()) {
    const auto msg = rec->DecodeMessage();
    if (msg && std::holds_alternative<bgp::UpdateMessage>(*msg)) ++updates;
  }
  span.set_items(updates);
  return NowS() - t0;
}

// Set-up simulates every input's log, each pinned to the next CPU in turn;
// the timed repetitions replay them in rotation. From the second round of
// inputs on, each round first simulates one input's log again, so the
// set-up samples spread over the whole run; the log must repeat exactly.
int Replay(const Options& opt) {
  const double simdays = SimDays(ReplayConfig(opt, 0));
  if (!opt.trace) {
    const int inputs = Inputs(opt);
    std::vector<ReplayInput> in;
    for (int k = 0; k < inputs; ++k) {
      PinTo(k);
      in.push_back(SimulateLog(ReplayConfig(opt, k), k));
    }
    std::vector<std::string> first(in.size());
    TimedLoop(opt, [&](int rep, int input) {
      if (rep >= inputs && rep % inputs == 0) {
        const int k = (rep / inputs - 1) % inputs;
        Check("log_repeat",
              SimulateLog(ReplayConfig(opt, k), k).crc ==
                  in[static_cast<std::size_t>(k)].crc);
      }
      const Run run = ReplayOnce(in[static_cast<std::size_t>(input)], nullptr);
      PrintRep(rep, input, run, simdays);
      CheckRepeat(first, input, run.digest);
    });
    return 0;
  }

  // --trace 1: untraced replay, the read and read+decode passes and the
  // traced replay, interleaved for kTraceRounds rounds and rotated over the
  // CPUs; every figure is the Low() of the rounds. Decode and classify are
  // differences of untraced passes, so they add up to the untraced Replay.
  g_spans.Enable();
  const ReplayInput log = SimulateLog(ReplayConfig(opt, 0), 0);
  std::vector<double> plain_s, traced_s, replay_s, read_s, read_decode_s;
  std::vector<std::string> first(1);
  int turn = 0;
  for (int round = 0; round < kTraceRounds; ++round) {
    PinTo(turn++);
    const Run plain = ReplayOnce(log, nullptr);
    const std::vector<Mark>& marks = plain.marks.front();
    replay_s.push_back(marks.back().wall_s - marks.front().wall_s);
    plain_s.push_back(plain.wall_s);
    CheckRepeat(first, 0, plain.digest);
    obs::Registry registry;
    registry.SetWallClockProfiling(true);
    Run traced;
    {
      SpanScope timed("timed");
      PinTo(turn++);
      read_s.push_back(ReadPass(log));
      PinTo(turn++);
      read_decode_s.push_back(ReadDecodePass(log));
      PinTo(turn++);
      traced = ReplayOnce(log, &registry);
    }
    traced_s.push_back(traced.wall_s);
    Check("traced_digest", traced.digest == plain.digest);
    if (round == 0) {
      PrintRep(0, 0, plain, simdays);
      PrintRep(1, 0, traced, simdays);
      Snapshot(registry);
    }
  }

  workload::ScenarioConfig quiet_cfg = ReplayConfig(opt, 0);
  quiet_cfg.series_flush_interval = Duration();
  Check("telemetry_off_mrt_crc", SimulateLog(quiet_cfg, 0).crc == log.crc);

  Layer("wall_untraced_s", Low(plain_s));
  Layer("wall_traced_s", Low(traced_s));
  Layer("mrt.read_ns", Low(read_s) * 1e9);
  Layer("bgp.codec.replay_decode_ns",
        (Low(read_decode_s) - Low(read_s)) * 1e9);
  Layer("core.replay_classify_ns",
        (Low(replay_s) - Low(read_decode_s)) * 1e9);
  Layer("mrt.capture_bytes", static_cast<double>(log.log.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else {
      std::fprintf(stderr, "iri_perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  PrintStamps();
  int rc = 2;
  if (opt.workload == "campaign") {
    rc = Campaign(opt);
  } else if (opt.workload == "replay") {
    rc = Replay(opt);
  } else {
    std::fprintf(stderr, "iri_perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  g_spans.Print();
  PrintChecks();
  return rc;
}
