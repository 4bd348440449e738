// perfbench_traced: the per-layer driver.
//
// It measures each layer from outside the program.  `core` is timed by an
// AlgorithmFactory decorator that wraps make_algorithm; everything else
// comes from public results, the manifest, and timing the public snapshot
// calls.  Nothing under src/ carries a timer.
//
// One run of the driver is one cycle.  Each sweep runs untraced (the base
// for fingerprints, runner overhead and tracing overhead), with
// CaseSpec::check_invariants off (the invariant checker's cost is the
// compute difference), through the decorator, and through the decorator
// with zero runs per case (the algorithm calls the runner makes per case
// outside compute_seconds, which run.py subtracts), in the palindromic
// order described in main().  For cascading workloads it then times a
// scout and restore of every case's checkpoints.
#include <x86intrin.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/algorithm.hpp"
#include "util/json.hpp"
#include "workload.hpp"

namespace {

using namespace dynvote;
using Clock = std::chrono::steady_clock;

/// One call in kSamplePeriod is timed; every call is counted.  A pair of
/// time reads costs about as much as a whole incoming_message call, so
/// timing every call would measure the clock, not the code.
constexpr std::uint64_t kSamplePeriod = 64;

/// The algorithms the workloads run, in the order the figures plot them.
constexpr std::array<AlgorithmKind, 5> kAlgorithms = {
    AlgorithmKind::kYkd, AlgorithmKind::kDfls, AlgorithmKind::kOnePending,
    AlgorithmKind::kMr1p, AlgorithmKind::kSimpleMajority};

enum Method : std::size_t { kIncoming, kViewChanged, kPoll, kMethodCount };
constexpr std::array<const char*, kMethodCount> kMethodNames = {
    "incoming", "view_changed", "poll"};

struct MethodCell {
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;
  std::uint64_t sampled_ticks = 0;
  std::uint64_t pair_ticks = 0;
};

/// Counters of every algorithm and method.
struct Totals {
  std::array<std::array<MethodCell, kMethodCount>, kAlgorithms.size()> cell{};
  std::array<std::uint64_t, kAlgorithms.size()> sends{};

  /// Adds `after - before` to this.
  void add_delta(const Totals& after, const Totals& before) {
    for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
      for (std::size_t m = 0; m < kMethodCount; ++m) {
        MethodCell& to = cell[a][m];
        const MethodCell& hi = after.cell[a][m];
        const MethodCell& lo = before.cell[a][m];
        to.calls += hi.calls - lo.calls;
        to.samples += hi.samples - lo.samples;
        to.sampled_ticks += hi.sampled_ticks - lo.sampled_ticks;
        to.pair_ticks += hi.pair_ticks - lo.pair_ticks;
      }
      sends[a] += after.sends[a] - before.sends[a];
    }
  }
};

/// One thread's counters.  Blocks are owned by the registry, not the
/// thread, so they outlive the sweep's worker threads and are read after
/// run_sweep has joined them.
struct Cells {
  Totals counts;
  /// xorshift64 state picking which calls are timed.  Random rather than
  /// every n-th call: a fixed stride would lock onto the per-recipient
  /// delivery order and time the same process every time.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;

  bool sample() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return (rng & (kSamplePeriod - 1)) == 0;
  }
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<Cells>> registry;  // guarded by registry_mutex
thread_local Cells* thread_cells = nullptr;

Cells& cells() {
  if (thread_cells == nullptr) {
    std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::make_unique<Cells>());
    thread_cells = registry.back().get();
  }
  return *thread_cells;
}

/// Every thread's counters summed.  Only called while no sweep is running,
/// so the worker threads that wrote them have been joined.
Totals totals() {
  std::lock_guard<std::mutex> lock(registry_mutex);
  Totals sum;
  for (const auto& block : registry) sum.add_delta(block->counts, Totals{});
  return sum;
}

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Counts the call and, for a sampled one, adds its duration in TSC ticks.
/// The reads are deliberately unserialized: steady_clock's ordered read
/// drains the pipeline around the call, which prices a tens-of-ns call at
/// its isolated latency; summed over a run those prices came to more than
/// the whole compute time.  An empty pair read just before the call prices
/// the pair itself in the same cache state; run.py subtracts it.
template <typename F>
auto timed(std::size_t algorithm, Method method, F&& call) {
  Cells& c = cells();
  MethodCell& cell = c.counts.cell[algorithm][method];
  ++cell.calls;
  if (!c.sample()) return call();
  const std::uint64_t before = __rdtsc();
  const std::uint64_t start = __rdtsc();
  auto result = call();
  const std::uint64_t stop = __rdtsc();
  ++cell.samples;
  // Unserialized reads can in principle retire out of order; such a
  // sample adds nothing rather than wrapping around.
  cell.sampled_ticks += stop > start ? stop - start : 0;
  cell.pair_ticks += start > before ? start - before : 0;
  return result;
}

/// Counts every call into the wrapped algorithm and times a sample of them.
class TimedAlgorithm final : public PrimaryComponentAlgorithm {
 public:
  TimedAlgorithm(std::unique_ptr<PrimaryComponentAlgorithm> inner,
                 std::size_t algorithm)
      : PrimaryComponentAlgorithm(inner->self(), inner->initial_view()),
        inner_(std::move(inner)),
        algorithm_(algorithm) {}

  void view_changed(const View& view) override {
    timed(algorithm_, kViewChanged, [&] {
      inner_->view_changed(view);
      return 0;
    });
  }

  Message incoming_message(Message message, ProcessId sender) override {
    return timed(algorithm_, kIncoming, [&] {
      return inner_->incoming_message(std::move(message), sender);
    });
  }

  std::optional<Message> outgoing_message_poll(const Message& app) override {
    std::optional<Message> out = timed(
        algorithm_, kPoll, [&] { return inner_->outgoing_message_poll(app); });
    if (out) ++cells().counts.sends[algorithm_];
    return out;
  }

  bool in_primary() const override { return inner_->in_primary(); }
  std::string_view name() const override { return inner_->name(); }
  AlgorithmDebugInfo debug_info() const override {
    return inner_->debug_info();
  }
  void save(Encoder& enc) const override { inner_->save(enc); }
  void load(Decoder& dec) override { inner_->load(dec); }
  const Session& last_primary_session() const override {
    return inner_->last_primary_session();
  }

 private:
  std::unique_ptr<PrimaryComponentAlgorithm> inner_;
  std::size_t algorithm_;
};

std::size_t algorithm_index(AlgorithmKind kind) {
  const auto it = std::find(kAlgorithms.begin(), kAlgorithms.end(), kind);
  if (it == kAlgorithms.end()) {
    throw std::invalid_argument("workload runs an untraced algorithm");
  }
  return static_cast<std::size_t>(it - kAlgorithms.begin());
}

perfbench::Workload traced(perfbench::Workload workload) {
  for (SweepSpec& sweep : workload.sweeps) {
    for (SweepCase& c : sweep.cases) {
      const AlgorithmKind kind = c.spec.algorithm;
      const std::size_t index = algorithm_index(kind);
      c.spec.algorithm_factory = [kind, index](ProcessId self,
                                               const View& initial_view) {
        return std::make_unique<TimedAlgorithm>(
            make_algorithm(kind, self, initial_view), index);
      };
    }
  }
  return workload;
}

/// Every case with zero runs: what is left is the runner's fixed work per
/// case (today the steady-allocation probe world it builds after each
/// case), which calls into the algorithms outside compute_seconds.
perfbench::Workload without_runs(perfbench::Workload workload) {
  for (SweepSpec& sweep : workload.sweeps) {
    sweep.name.clear();  // no manifest for this pass
    for (SweepCase& c : sweep.cases) c.spec.runs = 0;
  }
  return workload;
}

perfbench::Workload without_invariants(perfbench::Workload workload) {
  for (SweepSpec& sweep : workload.sweeps) {
    for (SweepCase& c : sweep.cases) c.spec.check_invariants = false;
  }
  return workload;
}

/// TSC ticks per nanosecond, against steady_clock over a busy-waited
/// interval.
double ticks_per_ns() {
  const auto start = Clock::now();
  const std::uint64_t first = __rdtsc();
  while (Clock::now() - start < std::chrono::milliseconds(100)) {
  }
  const std::uint64_t last = __rdtsc();
  const auto stop = Clock::now();
  return static_cast<double>(last - first) /
         static_cast<double>(elapsed_ns(start, stop));
}

/// `core` as one JSON line under `label`.
std::string core_json(const char* label, const Totals& core) {
  JsonWriter json;
  json.begin_object().key(label).begin_object();
  for (std::size_t a = 0; a < kAlgorithms.size(); ++a) {
    json.key(to_string(kAlgorithms[a])).begin_object();
    for (std::size_t m = 0; m < kMethodCount; ++m) {
      const MethodCell& cell = core.cell[a][m];
      json.key(kMethodNames[m]).begin_object();
      json.key("calls").value(cell.calls);
      json.key("samples").value(cell.samples);
      json.key("sampled_ticks").value(cell.sampled_ticks);
      json.key("pair_ticks").value(cell.pair_ticks);
      json.end_object();
    }
    json.key("sends").value(core.sends[a]);
    json.end_object();
  }
  json.end_object().end_object();
  return json.str();
}

double seconds_of(const std::function<void()>& body) {
  const auto start = Clock::now();
  body();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Time the snapshot layer the way the runner drives it: one scout per
/// cascading case emitting a checkpoint per shard boundary, then one
/// restore per checkpoint.  A restore is timed as run_cascading_shard over
/// zero runs from the checkpoint, minus the same call from scratch (which
/// only builds the world).  Shard boundaries follow the runner's rule,
/// shard = max(min_shard_runs, runs / (4 * jobs)); sweeps that leave
/// min_shard_runs or jobs to the runner are skipped (the cascading
/// workload sets both).
std::string snapshot_json(const perfbench::Workload& workload) {
  double scout_s = 0.0;
  double restore_s = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t checkpoints = 0;
  for (const SweepSpec& sweep : workload.sweeps) {
    for (const SweepCase& c : sweep.cases) {
      const CaseSpec& cs = c.spec;
      if (cs.mode != RunMode::kCascading || sweep.min_shard_runs == 0 ||
          sweep.jobs == 0) {
        continue;
      }
      const std::uint64_t shard = std::max<std::uint64_t>(
          sweep.min_shard_runs, cs.runs / (4 * sweep.jobs));
      std::vector<std::uint64_t> boundaries;
      for (std::uint64_t b = shard; b < cs.runs; b += shard) {
        boundaries.push_back(b);
      }
      if (boundaries.empty()) continue;
      std::vector<CascadeCheckpoint> scouted;
      scout_s += seconds_of(
          [&] { scouted = scout_cascading_case(cs, boundaries); });
      for (const CascadeCheckpoint& checkpoint : scouted) {
        bytes += checkpoint.bytes.size();
        ++checkpoints;
        restore_s +=
            seconds_of([&] { (void)run_cascading_shard(cs, checkpoint, 0); });
        restore_s -= seconds_of(
            [&] { (void)run_cascading_shard(cs, CascadeCheckpoint{}, 0); });
      }
    }
  }
  JsonWriter json;
  json.begin_object().key("snapshot").begin_object();
  json.key("scout_s").value(scout_s);
  json.key("restore_s").value(std::max(0.0, restore_s));
  json.key("bytes").value(bytes);
  json.key("checkpoints").value(checkpoints);
  json.end_object().end_object();
  return json.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    const Workload plain = make_workload(args.workload, args.base_seed);
    const Workload unchecked = without_invariants(plain);
    const Workload decorated = traced(plain);
    const Workload fixed = without_runs(decorated);
    std::cout << "{\"ticks_per_ns\":" << ticks_per_ns() << "}" << std::endl;

    // Each sweep runs eight times back to back, as a palindrome: untraced,
    // checks off, decorated, decorated with zero runs, then the same four
    // in reverse.  Every pair run.py compares sits symmetrically around the
    // middle, so a linear drift -- the host's, or the process slowing with
    // age -- cancels in the mean of the two halves, and every count is
    // produced twice.
    std::array<PassRecord, 2> untraced{PassRecord{"untraced", {}},
                                       PassRecord{"untraced", {}}};
    std::array<PassRecord, 2> noinv{PassRecord{"noinv", {}},
                                    PassRecord{"noinv", {}}};
    std::array<PassRecord, 2> decorated_pass{PassRecord{"traced", {}},
                                             PassRecord{"traced", {}}};
    std::array<Totals, 2> core{};
    std::array<Totals, 2> core_fixed{};
    for (std::size_t i = 0; i < plain.sweeps.size(); ++i) {
      untraced[0].sweeps.push_back(run_sweep_record(plain.sweeps[i]));
      noinv[0].sweeps.push_back(run_sweep_record(unchecked.sweeps[i]));
      const Totals t0 = totals();
      decorated_pass[0].sweeps.push_back(run_sweep_record(decorated.sweeps[i]));
      const Totals t1 = totals();
      (void)run_sweep_record(fixed.sweeps[i]);
      const Totals t2 = totals();
      (void)run_sweep_record(fixed.sweeps[i]);
      const Totals t3 = totals();
      decorated_pass[1].sweeps.push_back(run_sweep_record(decorated.sweeps[i]));
      const Totals t4 = totals();
      noinv[1].sweeps.push_back(run_sweep_record(unchecked.sweeps[i]));
      untraced[1].sweeps.push_back(run_sweep_record(plain.sweeps[i]));
      core[0].add_delta(t1, t0);
      core_fixed[0].add_delta(t2, t1);
      core_fixed[1].add_delta(t3, t2);
      core[1].add_delta(t4, t3);
    }
    for (std::size_t half = 0; half < 2; ++half) {
      std::cout << to_json(untraced[half]) << std::endl;
      std::cout << to_json(noinv[half]) << std::endl;
      std::cout << to_json(decorated_pass[half]) << std::endl;
      std::cout << core_json("core", core[half]) << std::endl;
      std::cout << core_json("core_fixed", core_fixed[half]) << std::endl;
    }
    std::cout << snapshot_json(plain) << std::endl;
    std::cout << "{\"peak_rss_mb\":" << peak_rss_mb() << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_traced: " << e.what() << "\n";
    return 2;
  }
}
