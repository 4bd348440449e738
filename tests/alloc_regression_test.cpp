// The allocation-free hot path, enforced: with the counting allocator
// linked, warmed-up steady-state protocol rounds at n=64 must perform ZERO
// heap allocations for every plotted algorithm (each one's ceiling is
// pinned below at its measured count).  This is the regression fence for
// the small-buffer ProcessSet, the FunctionRef callbacks, the pooled round
// payloads and the cursor-based outboxes -- reintroducing an allocation
// into any of them fails this test with an exact count.
//
// This binary links dv_alloc_hook (see tests/CMakeLists.txt); if someone
// builds it without the hook the test skips rather than vacuously passing.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "core/process_set.hpp"
#include "gcs/gcs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/alloc_stats.hpp"

namespace dynvote {
namespace {

constexpr std::size_t kProcesses = 64;
constexpr int kWarmupCycles = 8;
constexpr std::uint64_t kMinMeasuredRounds = 100;

/// Run protocol rounds until quiet, counting only the step_round work.
std::uint64_t settle(Gcs& gcs, std::uint64_t* allocs) {
  std::uint64_t rounds = 0;
  const std::uint64_t before = thread_allocations();
  while (gcs.step_round() && rounds < 1000) ++rounds;
  if (allocs != nullptr) *allocs += thread_allocations() - before;
  return rounds;
}

/// One plotted algorithm and its steady-state allocation ceiling.
struct SteadyCeiling {
  AlgorithmKind kind;
  const char* name;  // gtest parameter name
  /// Most heap allocations allowed per measured round; 0 = allocation-free.
  std::uint64_t max_allocs_per_round;
  /// Simple majority sends no protocol traffic, so a connectivity change
  /// leaves nothing to deliver and no round is measured at all.
  bool quiet;
};

void PrintTo(const SteadyCeiling& ceiling, std::ostream* os) {
  *os << ceiling.name;
}

class SteadyStateAllocs : public ::testing::TestWithParam<SteadyCeiling> {};

/// 8 warm-up and 4 measured partition/merge cycles of the lower half at
/// n=64: warm-up lets every pooled payload, scratch vector and outbox reach
/// its steady capacity (allocations there are expected and uncounted), the
/// measured cycles count only the step_round work.
TEST_P(SteadyStateAllocs, RoundsStayWithinCeilingAtN64) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  const SteadyCeiling& param = GetParam();

  Gcs gcs(param.kind, kProcesses);
  ProcessSet lower_half(kProcesses);
  for (ProcessId p = 0; p < kProcesses / 2; ++p) lower_half.insert(p);

  constexpr int kMeasuredCycles = 4;
  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
  for (int cycle = 0; cycle < kWarmupCycles + kMeasuredCycles; ++cycle) {
    std::uint64_t* counter = cycle >= kWarmupCycles ? &allocs : nullptr;
    gcs.apply_partition(0, lower_half);
    const std::uint64_t split_rounds = settle(gcs, counter);
    gcs.apply_merge(0, 1);
    const std::uint64_t merge_rounds = settle(gcs, counter);
    if (counter != nullptr) rounds += split_rounds + merge_rounds;
  }

  if (param.quiet) {
    EXPECT_EQ(rounds, 0u) << param.name << " ran protocol rounds";
    return;
  }
  ASSERT_GT(rounds, 0u);
  EXPECT_LE(allocs, param.max_allocs_per_round * rounds)
      << param.name << " allocated " << allocs << " times over " << rounds
      << " steady-state rounds; the ceiling is "
      << param.max_allocs_per_round << " per round";
}

INSTANTIATE_TEST_SUITE_P(
    PlottedAlgorithms, SteadyStateAllocs,
    ::testing::Values(
        SteadyCeiling{AlgorithmKind::kYkd, "Ykd", 0, false},
        SteadyCeiling{AlgorithmKind::kDfls, "Dfls", 0, false},
        SteadyCeiling{AlgorithmKind::kOnePending, "OnePending", 0, false},
        SteadyCeiling{AlgorithmKind::kMr1p, "Mr1p", 0, false},
        SteadyCeiling{AlgorithmKind::kSimpleMajority, "SimpleMajority", 0,
                      true}),
    [](const ::testing::TestParamInfo<SteadyCeiling>& ceiling) {
      return std::string(ceiling.param.name);
    });

/// Past the SBO limit: at N=256 every ProcessSet spills, and the spill
/// storage comes from the thread-local freelist arena -- so warmed-up
/// steady-state rounds must stay at ZERO heap allocations there too.  This
/// is the gate for the beyond-128 extension of the zero-alloc guarantee.
TEST(AllocRegression, SteadyStateRoundsAreAllocationFreeAtN256) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }

  constexpr std::size_t kBigUniverse = 256;
  Gcs gcs(AlgorithmKind::kYkd, kBigUniverse);
  ProcessSet lower_half(kBigUniverse);
  for (ProcessId p = 0; p < kBigUniverse / 2; ++p) lower_half.insert(p);

  for (int cycle = 0; cycle < kWarmupCycles; ++cycle) {
    gcs.apply_partition(0, lower_half);
    settle(gcs, nullptr);
    gcs.apply_merge(0, 1);
    settle(gcs, nullptr);
  }

  std::uint64_t allocs = 0;
  std::uint64_t rounds = 0;
  while (rounds < kMinMeasuredRounds) {
    gcs.apply_partition(0, lower_half);
    rounds += settle(gcs, &allocs);
    gcs.apply_merge(0, 1);
    rounds += settle(gcs, &allocs);
  }

  EXPECT_GE(rounds, kMinMeasuredRounds);
  EXPECT_EQ(allocs, 0u)
      << "steady-state hot path at N=" << kBigUniverse << " allocated "
      << allocs << " times over " << rounds
      << " rounds; the spill arena is supposed to extend the zero-alloc "
      << "guarantee past the N<=128 inline limit";
}

/// The quiet case: rounds with no protocol traffic at all must obviously
/// stay allocation-free too (this is the common case in low-rate sweeps).
TEST(AllocRegression, QuiescentRoundsAreAllocationFree) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }

  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  settle(gcs, nullptr);  // drain the initial view formation

  const std::uint64_t before = thread_allocations();
  for (int i = 0; i < 100; ++i) (void)gcs.step_round();
  EXPECT_EQ(thread_allocations() - before, 0u);
}

/// The observability layer must not erode the guarantee: with tracing OFF
/// (the default), instrumented steady-state rounds at n=64 stay at zero
/// allocations -- the emission sites cost one relaxed load/add each, never
/// a heap touch.  install_view carries DV_OBS_INC/DV_TRACE_INSTANT sites,
/// so this variant counts the partition/merge applications too, not just
/// the round loop.
TEST(AllocRegression, TracingOffSteadyStateStaysAllocationFreeAtN64) {
  if (!alloc_hook_linked()) {
    GTEST_SKIP() << "dv_alloc_hook not linked; allocation counts unavailable";
  }
  ASSERT_FALSE(obs::trace_enabled());

  Gcs gcs(AlgorithmKind::kYkd, kProcesses);
  ProcessSet lower_half(kProcesses);
  for (ProcessId p = 0; p < kProcesses / 2; ++p) lower_half.insert(p);

  // Warm-up also interns the emission sites' metric names and allocates
  // this thread's metrics shard -- one-time costs, by design.
  for (int cycle = 0; cycle < kWarmupCycles; ++cycle) {
    gcs.apply_partition(0, lower_half);
    settle(gcs, nullptr);
    gcs.apply_merge(0, 1);
    settle(gcs, nullptr);
  }

  std::uint64_t rounds = 0;
  const std::uint64_t before = thread_allocations();
  while (rounds < kMinMeasuredRounds) {
    gcs.apply_partition(0, lower_half);
    while (gcs.step_round() && rounds < 100000) ++rounds;
    gcs.apply_merge(0, 1);
    while (gcs.step_round() && rounds < 100000) ++rounds;
  }
  const std::uint64_t allocs = thread_allocations() - before;

  EXPECT_GE(rounds, kMinMeasuredRounds);
  EXPECT_EQ(allocs, 0u)
      << "with tracing off, instrumented steady state allocated " << allocs
      << " times over " << rounds
      << " rounds; DV_OBS_*/DV_TRACE_* sites must be free when disarmed";
}

}  // namespace
}  // namespace dynvote
