// bench_diff: compare two run manifests (sweep or microbench) for drift.
//
//   bench_diff [--perf-gate PCT] BASELINE.json CANDIDATE.json
//
// Sweep manifests ("dynvote.sweep.*") compare on results_fingerprint
// first: identical fingerprints mean bit-identical simulation results, so
// the tool skips straight to perf telemetry (runs/sec, rounds/sec) and
// reports timing drift informationally.  Differing fingerprints are a
// correctness event: the tool diffs availability per case and exits
// non-zero so CI fails.
//
// --perf-gate PCT turns the perf report into a regression gate: after a
// fingerprint match, any case whose rounds_per_sec fell more than PCT
// percent below the baseline fails the compare with exit code 3.  Only
// slowdowns gate -- speedups and new cases pass -- and the gate never runs
// when fingerprints differ (a correctness failure outranks a timing one).
//
// Microbench manifests ("dynvote.microbench.v1") have no deterministic
// payload -- they are all timing -- so bench_diff matches benchmarks by
// name and reports per-iteration time drift, always exiting 0 (timing is
// noisy; gate on fingerprints and --perf-gate, watch the microbenches).
//
// Exit codes, CI-stable:
//   0  fingerprints match (or informational microbench compare)
//   1  results fingerprints differ
//   2  usage, I/O, parse, or schema error
//   3  --perf-gate tripped: a case regressed beyond the threshold
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace {

using dynvote::JsonValue;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--perf-gate PCT] BASELINE.json CANDIDATE.json\n";
  return 2;
}

std::optional<JsonValue> load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "bench_diff: cannot read " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<JsonValue> doc = dynvote::json_parse(buf.str());
  if (!doc || !doc->is_object()) {
    std::cerr << "bench_diff: " << path << " is not a JSON object\n";
    return std::nullopt;
  }
  return doc;
}

/// "+12.3%" / "-4.5%"; "n/a" when the baseline is zero or missing.
std::string percent_delta(double baseline, double candidate) {
  if (!(baseline > 0.0)) return "n/a";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%",
                (candidate - baseline) / baseline * 100.0);
  return buf;
}

/// Case coordinates, the join key between two sweeps of the same shape.
std::string case_key(const JsonValue& c) {
  std::ostringstream key;
  key << c.string_or("algorithm", "?") << " p=" << c.number_or("processes", -1)
      << " c=" << c.number_or("changes", -1) << " r=" << c.number_or("rate", -1)
      << " " << c.string_or("mode", "?");
  if (c.number_or("crash_fraction", 0.0) > 0.0) {
    key << " crash=" << c.number_or("crash_fraction", 0.0);
  }
  // Non-geometric cases carry a fault_model block; every parameter joins
  // the key so differently-parameterized sweeps can never be compared as
  // if they were the same case.
  const JsonValue* model = c.find("fault_model");
  if (model != nullptr && model->is_object()) {
    key << " model=" << model->string_or("model", "?") << '[';
    bool first = true;
    for (const auto& [name, value] : model->members()) {
      if (name == "model") continue;
      if (!first) key << ',';
      first = false;
      key << name << '=';
      if (value.is_number()) {
        key << value.as_number();
      } else if (value.is_string()) {
        key << value.as_string();
      }
    }
    key << ']';
  }
  return key.str();
}

const JsonValue* find_case(const JsonValue& manifest, const std::string& key) {
  const JsonValue* cases = manifest.find("cases");
  if (cases == nullptr || !cases->is_array()) return nullptr;
  for (const JsonValue& c : cases->items()) {
    if (case_key(c) == key) return &c;
  }
  return nullptr;
}

void perf_drift_line(const std::string& key, const JsonValue& base,
                     const JsonValue& cand) {
  std::cout << "  " << key << ": runs/sec "
            << percent_delta(base.number_or("runs_per_sec", 0.0),
                             cand.number_or("runs_per_sec", 0.0))
            << ", rounds/sec "
            << percent_delta(base.number_or("rounds_per_sec", 0.0),
                             cand.number_or("rounds_per_sec", 0.0))
            << "\n";
}

/// One case's gate verdict: the percent rounds_per_sec fell, when both
/// sides carry the field and the candidate is slower.
std::optional<double> rounds_regression_pct(const JsonValue& base,
                                            const JsonValue& cand) {
  const double before = base.number_or("rounds_per_sec", 0.0);
  const double after = cand.number_or("rounds_per_sec", 0.0);
  if (!(before > 0.0) || !(after > 0.0) || after >= before) {
    return std::nullopt;
  }
  return (before - after) / before * 100.0;
}

int diff_sweeps(const JsonValue& base, const JsonValue& cand,
                std::optional<double> perf_gate_pct) {
  const std::string_view base_fp = base.string_or("results_fingerprint", "");
  const std::string_view cand_fp = cand.string_or("results_fingerprint", "");
  if (base_fp.empty() || cand_fp.empty()) {
    std::cerr << "bench_diff: sweep manifest lacks results_fingerprint\n";
    return 2;
  }
  if (base.string_or("sweep", "") != cand.string_or("sweep", "")) {
    std::cerr << "bench_diff: comparing different sweeps ('"
              << base.string_or("sweep", "?") << "' vs '"
              << cand.string_or("sweep", "?") << "')\n";
    return 2;
  }

  const JsonValue* base_cases = base.find("cases");
  if (base_fp == cand_fp) {
    // Fast path: bit-identical results, only speed can have moved.
    std::cout << "results fingerprints match (" << base_fp << ")\n";
    std::cout << "wall_seconds " << base.number_or("wall_seconds", 0.0)
              << " -> " << cand.number_or("wall_seconds", 0.0) << " ("
              << percent_delta(base.number_or("wall_seconds", 0.0),
                               cand.number_or("wall_seconds", 0.0))
              << ")\n";
    bool gate_tripped = false;
    if (base_cases != nullptr && base_cases->is_array()) {
      for (const JsonValue& c : base_cases->items()) {
        const std::string key = case_key(c);
        const JsonValue* other = find_case(cand, key);
        if (other == nullptr) continue;
        perf_drift_line(key, c, *other);
        if (!perf_gate_pct.has_value()) continue;
        const std::optional<double> drop = rounds_regression_pct(c, *other);
        if (drop.has_value() && *drop > *perf_gate_pct) {
          std::cout << "  PERF GATE: " << key << " rounds/sec fell "
                    << *drop << "% (gate " << *perf_gate_pct << "%)\n";
          gate_tripped = true;
        }
      }
    }
    return gate_tripped ? 3 : 0;
  }

  std::cout << "RESULTS FINGERPRINT MISMATCH: " << base_fp << " vs " << cand_fp
            << "\n";
  if (base_cases != nullptr && base_cases->is_array()) {
    for (const JsonValue& c : base_cases->items()) {
      const std::string key = case_key(c);
      const JsonValue* other = find_case(cand, key);
      if (other == nullptr) {
        std::cout << "  " << key << ": missing from candidate\n";
        continue;
      }
      const double base_avail = c.number_or("availability_percent", -1.0);
      const double cand_avail = other->number_or("availability_percent", -1.0);
      const double base_succ = c.number_or("successes", -1.0);
      const double cand_succ = other->number_or("successes", -1.0);
      if (base_avail != cand_avail || base_succ != cand_succ) {
        std::cout << "  " << key << ": availability " << base_avail << "% -> "
                  << cand_avail << "% (successes " << base_succ << " -> "
                  << cand_succ << ")\n";
      }
    }
    const JsonValue* cand_cases = cand.find("cases");
    if (cand_cases != nullptr && cand_cases->is_array()) {
      for (const JsonValue& c : cand_cases->items()) {
        if (find_case(base, case_key(c)) == nullptr) {
          std::cout << "  " << case_key(c) << ": missing from baseline\n";
        }
      }
    }
  }
  return 1;
}

const JsonValue* find_benchmark(const JsonValue& manifest,
                                const std::string& name) {
  const JsonValue* benchmarks = manifest.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) return nullptr;
  for (const JsonValue& b : benchmarks->items()) {
    if (b.string_or("name", "") == name) return &b;
  }
  return nullptr;
}

int diff_microbench(const JsonValue& base, const JsonValue& cand) {
  const JsonValue* benchmarks = base.find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::cerr << "bench_diff: microbench manifest lacks benchmarks array\n";
    return 2;
  }
  std::cout << "microbench timing drift (informational; never gates):\n";
  for (const JsonValue& b : benchmarks->items()) {
    const std::string name(b.string_or("name", "?"));
    const JsonValue* other = find_benchmark(cand, name);
    if (other == nullptr) {
      std::cout << "  " << name << ": missing from candidate\n";
      continue;
    }
    const double base_ns = b.number_or("real_ns", 0.0);
    const double cand_ns = other->number_or("real_ns", 0.0);
    std::cout << "  " << name << ": " << base_ns << " ns -> " << cand_ns
              << " ns (" << percent_delta(base_ns, cand_ns) << ")\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<double> perf_gate_pct;
  int arg = 1;
  if (arg < argc && std::string_view(argv[arg]) == "--perf-gate") {
    if (arg + 1 >= argc) return usage(argv[0]);
    char* end = nullptr;
    const double pct = std::strtod(argv[arg + 1], &end);
    if (end == argv[arg + 1] || *end != '\0' || !(pct >= 0.0)) {
      std::cerr << "bench_diff: --perf-gate needs a non-negative percent\n";
      return 2;
    }
    perf_gate_pct = pct;
    arg += 2;
  }
  if (argc - arg != 2) return usage(argv[0]);
  const std::optional<JsonValue> base = load_manifest(argv[arg]);
  const std::optional<JsonValue> cand = load_manifest(argv[arg + 1]);
  if (!base || !cand) return 2;

  const std::string_view base_schema = base->string_or("schema", "");
  const std::string_view cand_schema = cand->string_or("schema", "");
  const bool base_sweep = base_schema.substr(0, 14) == "dynvote.sweep.";
  const bool cand_sweep = cand_schema.substr(0, 14) == "dynvote.sweep.";
  const bool base_micro = base_schema.substr(0, 19) == "dynvote.microbench.";
  const bool cand_micro = cand_schema.substr(0, 19) == "dynvote.microbench.";

  if (base_sweep && cand_sweep) {
    return diff_sweeps(*base, *cand, perf_gate_pct);
  }
  if (base_micro && cand_micro) return diff_microbench(*base, *cand);
  std::cerr << "bench_diff: incomparable schemas '" << base_schema << "' vs '"
            << cand_schema << "'\n";
  return 2;
}
