// The benchmark's workloads and one measured pass over a workload.
//
// A workload is a fixed list of sweeps built through the public sweep API
// (availability_grid, SweepSpec::jobs) from a base seed.  A pass runs every
// sweep once through run_sweep and records what a user of the sweep engine
// sees -- wall, CPU, results fingerprints -- plus the manifest keys the
// per-layer ledger reads.  Both drivers (perfbench_sweep, perfbench_traced)
// print passes as one JSON object per line; perfbench/run.py turns the
// lines into the benchmark's metrics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace perfbench {

struct Workload {
  std::vector<dynvote::SweepSpec> sweeps;
};

/// The named workload's sweeps at `base_seed`.  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t base_seed);

/// One sweep of one pass.
struct SweepRecord {
  std::string name;
  std::size_t jobs = 0;
  double wall_s = 0.0;
  /// Sum of CaseOutcome::compute_seconds.
  double compute_s = 0.0;
  /// Process user+system CPU seconds spent inside run_sweep.
  double cpu_s = 0.0;
  /// Time to render manifest_json for the returned result.
  double manifest_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t invariant_checks = 0;
  std::string fingerprint;
  /// results_fingerprint of each case as a one-case sweep of this name.
  std::vector<std::string> case_fingerprints;
  /// Numbers read from the manifest by key; nullopt when the key is absent.
  std::map<std::string, std::optional<double>> manifest;
  /// Non-empty when run_sweep threw; the sweep's cases count as failed.
  std::string error;
};

struct PassRecord {
  std::string kind;
  std::vector<SweepRecord> sweeps;
};

/// Run one sweep.  An exception from it is caught and recorded in
/// SweepRecord::error.
SweepRecord run_sweep_record(const dynvote::SweepSpec& sweep);

/// Run every sweep of `workload` once.
PassRecord run_pass(const Workload& workload, const std::string& kind);

/// `pass` as one line of JSON (no trailing newline).
std::string to_json(const PassRecord& pass);

/// CLOCK_MONOTONIC in nanoseconds -- the clock run.py reads before it
/// starts a driver, so the two can be subtracted.
std::uint64_t monotonic_ns();

/// User plus system CPU seconds of this process so far.
double process_cpu_seconds();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

struct Args {
  std::string workload;
  std::uint64_t base_seed = 0;
  /// Build the workload, report the set-up timestamp and exit.
  bool setup_only = false;
};

/// `--workload NAME --base-seed N [--setup-only]`.  Throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

}  // namespace perfbench
