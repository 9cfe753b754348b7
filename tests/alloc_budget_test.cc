// Allocation budget for the steady-state message path.
//
// This binary replaces the global operator new/delete with counting
// versions, runs a small exchange scenario past its bootstrap, and measures
// heap allocations per link message over a steady-state window. The budget
// pins the allocation-free message path (DESIGN.md §12): export ops carry
// interned ids, the packer and encoder write into reused scratch, links and
// delayed sends recycle their buffers. One extra heap allocation per sent
// message is enough to break it.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "workload/scenario.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace iri::workload {
namespace {

// Measured 0.196 allocations per link message on this scenario (gcc 12,
// libstdc++). What remains is PathAttributes value copies in the RIB and
// local-route tables, not the message path; one extra allocation per sent
// message lands above 1.1.
constexpr double kBudget = 0.5;

TEST(AllocBudget, SteadyStateAllocationsPerLinkMessage) {
  ScenarioConfig cfg;
  cfg.topology.scale = 1.0 / 8;
  cfg.topology.num_providers = 16;
  cfg.topology.seed = 3;
  cfg.seed = 4;
  cfg.duration = Duration::Hours(8);
  ExchangeScenario scenario(cfg);
  const obs::Counter& messages = scenario.metrics().GetCounter("link.messages");

  // Past the bootstrap dump and the first hours' warm-up (every scratch
  // buffer has met its working size).
  scenario.RunUntil(TimePoint::Origin() + Duration::Hours(3));
  const std::uint64_t allocs_before = g_allocations.load();
  const std::uint64_t messages_before = messages.value();
  scenario.RunUntil(TimePoint::Origin() + cfg.duration);
  const std::uint64_t allocs = g_allocations.load() - allocs_before;
  const std::uint64_t sent = messages.value() - messages_before;

  ASSERT_GT(sent, 1000u) << "window too quiet to measure";
  const double per_message =
      static_cast<double>(allocs) / static_cast<double>(sent);
  std::printf(
      "steady state: %llu allocations over %llu link messages = %.3f per "
      "message\n",
      static_cast<unsigned long long>(allocs),
      static_cast<unsigned long long>(sent), per_message);
  EXPECT_LE(per_message, kBudget);
}

}  // namespace
}  // namespace iri::workload
