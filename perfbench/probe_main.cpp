// perfbench_probe: how fast this host is right now.  Prints
// {"probe_s": <seconds>} for a fixed kernel: a dependent walk over an
// 8 MiB random cycle (past a core's L2, into the shared L3) and a
// dependent multiply chain, about 0.1 s each.
//
// It runs no dynvote code, so a change to src/ cannot move it; what moves
// it is the host: the other tenants' load on the caches, memory and cores.
// run.py runs it between passes and expresses each pass's seconds at a
// fixed probe time, which cancels most of the host's drift.  It is a
// process of its own so that its buffer never counts towards the sweep
// driver's peak resident set.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <numeric>
#include <random>
#include <vector>

namespace {

constexpr std::size_t kCycleIds = (8u << 20) / sizeof(std::uint32_t);
constexpr std::size_t kChaseSteps = 1u << 20;
constexpr std::uint64_t kMultiplies = 64u << 20;

/// Keeps the loops' results live.
volatile std::uint64_t sink = 0;

}  // namespace

int main() {
  std::vector<std::uint32_t> order(kCycleIds);
  std::iota(order.begin(), order.end(), 0u);
  std::mt19937 gen(24301);
  std::shuffle(order.begin(), order.end(), gen);
  std::vector<std::uint32_t> next(kCycleIds);
  for (std::size_t i = 0; i < kCycleIds; ++i) {
    next[order[i]] = order[(i + 1) % kCycleIds];
  }
  // A linear read first, so the walk starts with the cycle in the caches.
  std::uint32_t at = std::accumulate(next.begin(), next.end(), 0u) % kCycleIds;
  std::uint64_t x = at;

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChaseSteps; ++i) at = next[at];
  for (std::uint64_t i = 0; i < kMultiplies; ++i) {
    x = x * 6364136223846793005u + 1442695040888963407u;
  }
  const std::chrono::duration<double> seconds =
      std::chrono::steady_clock::now() - start;
  sink = at + x;
  std::cout << "{\"probe_s\":" << seconds.count() << "}" << std::endl;
  return 0;
}
