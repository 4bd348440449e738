#include "workload.hpp"

#include <sys/resource.h>

#include <chrono>
#include <ctime>
#include <stdexcept>
#include <utility>

#include "runner/artifact.hpp"
#include "util/json.hpp"

namespace perfbench {

using namespace dynvote;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The five algorithms the availability figures plot, in their order.
std::vector<AlgorithmKind> plotted_algorithms() {
  return {AlgorithmKind::kYkd, AlgorithmKind::kDfls,
          AlgorithmKind::kOnePending, AlgorithmKind::kMr1p,
          AlgorithmKind::kSimpleMajority};
}

// fresh_smoke: the ROADMAP smoke sweep, exactly as fig4_availability_fresh
// runs it at DV_RUNS=20 (same sweep names, so at base seed 0x5eed the
// fingerprints are the committed bench/baselines ones).
constexpr std::uint64_t kSmokeRuns = 20;

// cascade_sharded: each case is split into kCascadeRuns / kCascadeShardRuns
// snapshot shards (the runner's shard size is max(min_shard_runs,
// runs / (4 * jobs)), which is kCascadeShardRuns here).
constexpr std::uint64_t kCascadeRuns = 16;
constexpr std::uint64_t kCascadeShardRuns = 4;
constexpr std::size_t kCascadeJobs = 2;

dynvote::NullProgress& silent() {
  static dynvote::NullProgress sink;
  return sink;
}

SweepSpec figure_sweep(const std::string& name, std::size_t changes,
                       RunMode mode, std::uint64_t runs,
                       std::uint64_t base_seed, std::size_t jobs) {
  SweepSpec sweep;
  sweep.name = name;
  sweep.cases = availability_grid(plotted_algorithms(), standard_rate_sweep(),
                                  changes, mode, runs, base_seed);
  sweep.jobs = jobs;
  sweep.progress = &silent();
  return sweep;
}

/// Adds `value` to the optional sum at `key`, making it present.
void add(std::map<std::string, std::optional<double>>& out,
         const std::string& key, double value) {
  std::optional<double>& slot = out[key];
  slot = slot.value_or(0.0) + value;
}

/// The manifest numbers the per-layer ledger uses, read by key: per-case
/// keys summed over the cases (with `<key>.cases` counting the cases that
/// carry the key) plus one observability counter.  A key no case carries
/// stays nullopt ("absent"), so a later change that deletes a telemetry
/// block degrades the ledger instead of breaking the run.
std::map<std::string, std::optional<double>> read_manifest(
    const std::string& text) {
  static const char* const kCaseKeys[] = {"shards", "steals",
                                          "steady_allocs_per_round"};
  static const char* const kBatchKeys[] = {
      "prefix_hits", "prefix_misses", "prefix_rounds_adopted",
      "ff_rounds_skipped"};
  std::map<std::string, std::optional<double>> out;
  for (const char* key : kCaseKeys) {
    out[key];
    out[std::string(key) + ".cases"];
  }
  for (const char* key : kBatchKeys) out[std::string("batch.") + key];
  out["gcs.views_installed"];

  const std::optional<JsonValue> doc = json_parse(text);
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("manifest_json produced an unparsable document");
  }
  if (const JsonValue* cases = doc->find("cases");
      cases != nullptr && cases->is_array()) {
    for (const JsonValue& c : cases->items()) {
      for (const char* key : kCaseKeys) {
        if (const JsonValue* v = c.find(key); v && v->is_number()) {
          add(out, key, v->as_number());
          add(out, std::string(key) + ".cases", 1.0);
        }
      }
      if (const JsonValue* batch = c.find("batch");
          batch != nullptr && batch->is_object()) {
        for (const char* key : kBatchKeys) {
          if (const JsonValue* v = batch->find(key); v && v->is_number()) {
            add(out, std::string("batch.") + key, v->as_number());
          }
        }
      }
    }
  }
  if (const JsonValue* obs = doc->find("observability"); obs != nullptr) {
    if (const JsonValue* counters = obs->find("counters");
        counters != nullptr) {
      if (const JsonValue* v = counters->find("gcs.views_installed");
          v && v->is_number()) {
        add(out, "gcs.views_installed", v->as_number());
      }
    }
  }
  return out;
}

}  // namespace

SweepRecord run_sweep_record(const SweepSpec& sweep) {
  SweepRecord rec;
  rec.name = sweep.name;
  rec.jobs = sweep.jobs;
  try {
    const double cpu_before = process_cpu_seconds();
    const auto start = Clock::now();
    const SweepResult result = run_sweep(sweep);
    rec.wall_s = seconds_since(start);
    rec.cpu_s = process_cpu_seconds() - cpu_before;

    for (const CaseOutcome& outcome : result.cases) {
      rec.compute_s += outcome.compute_seconds;
      rec.rounds += outcome.result.total_rounds;
      rec.deliveries += outcome.result.total_deliveries;
      rec.invariant_checks += outcome.result.invariant_checks;
    }

    const auto manifest_start = Clock::now();
    const std::string manifest = manifest_json(sweep, result);
    rec.manifest_s = seconds_since(manifest_start);
    rec.manifest = read_manifest(manifest);

    rec.fingerprint = results_fingerprint(sweep, result);
    rec.case_fingerprints.reserve(result.cases.size());
    for (std::size_t i = 0; i < result.cases.size(); ++i) {
      SweepSpec one;
      one.name = sweep.name;
      one.cases = {sweep.cases[i]};
      SweepResult one_result;
      one_result.cases = {result.cases[i]};
      rec.case_fingerprints.push_back(results_fingerprint(one, one_result));
    }
  } catch (const std::exception& e) {
    rec.error = e.what();
    if (rec.error.empty()) rec.error = "exception";
  }
  return rec;
}

Workload make_workload(const std::string& name, std::uint64_t base_seed) {
  Workload w;
  if (name == "fresh_smoke") {
    w.sweeps = {
        figure_sweep("fig4_1_fresh_2", 2, RunMode::kFreshStart, kSmokeRuns,
                     base_seed, 1),
        figure_sweep("fig4_2_fresh_6", 6, RunMode::kFreshStart, kSmokeRuns,
                     base_seed, 1),
        figure_sweep("fig4_3_fresh_12", 12, RunMode::kFreshStart, kSmokeRuns,
                     base_seed, 1),
    };
  } else if (name == "cascade_sharded") {
    for (const auto& [sweep_name, changes] :
         {std::pair<const char*, std::size_t>{"fig4_4_cascading_2", 2},
          {"fig4_5_cascading_6", 6},
          {"fig4_6_cascading_12", 12}}) {
      SweepSpec sweep = figure_sweep(sweep_name, changes, RunMode::kCascading,
                                     kCascadeRuns, base_seed, kCascadeJobs);
      sweep.min_shard_runs = kCascadeShardRuns;
      w.sweeps.push_back(std::move(sweep));
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

PassRecord run_pass(const Workload& workload, const std::string& kind) {
  PassRecord pass;
  pass.kind = kind;
  for (const SweepSpec& sweep : workload.sweeps) {
    pass.sweeps.push_back(run_sweep_record(sweep));
  }
  return pass;
}

std::string to_json(const PassRecord& pass) {
  JsonWriter json;
  json.begin_object();
  json.key("pass").value(pass.kind);
  json.key("sweeps").begin_array();
  for (const SweepRecord& s : pass.sweeps) {
    json.begin_object();
    json.key("name").value(s.name);
    json.key("jobs").value(static_cast<std::uint64_t>(s.jobs));
    json.key("wall_s").value(s.wall_s);
    json.key("compute_s").value(s.compute_s);
    json.key("cpu_s").value(s.cpu_s);
    json.key("manifest_s").value(s.manifest_s);
    json.key("rounds").value(s.rounds);
    json.key("deliveries").value(s.deliveries);
    json.key("invariant_checks").value(s.invariant_checks);
    json.key("fingerprint").value(s.fingerprint);
    json.key("case_fingerprints").begin_array();
    for (const std::string& f : s.case_fingerprints) json.value(f);
    json.end_array();
    json.key("manifest").begin_object();
    for (const auto& [key, value] : s.manifest) {
      json.key(key);
      if (value) {
        json.value(*value);
      } else {
        json.null();
      }
    }
    json.end_object();
    json.key("error").value(s.error);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--base-seed") {
      std::size_t used = 0;
      args.base_seed = std::stoull(value, &used, 0);
      have_seed = used == value.size();
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!have_workload || !have_seed) {
    throw std::invalid_argument(
        "usage: --workload NAME --base-seed N [--setup-only]");
  }
  return args;
}

}  // namespace perfbench
