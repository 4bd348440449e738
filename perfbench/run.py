#!/usr/bin/env python3
"""The repository benchmark: builds dynvote from source, runs one workload
and prints its metrics as a JSON object on the last line of stdout.

    python3 perfbench/run.py --workload fresh_smoke --seed 24301 \
        --seconds 20 --trace 0

--trace 0 runs the untraced driver and reports the end-to-end metrics;
--trace 1 runs the traced driver and reports the per-layer ledger.  See
perfbench/README.md for what each metric means and why each workload
exists.  Exits non-zero without printing a result when the program cannot
be built or a driver fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCES = os.path.join(HERE, "references.json")

WORKLOADS = ("fresh_smoke", "cascade_sharded")
ALGORITHMS = ("ykd", "dfls", "1-pending", "mr1p", "simple-majority")

# --seed is folded into a window of consecutive base seeds starting at the
# default 0x5eed, the seeds references.json records.
DEFAULT_SEED = 0x5EED
SEED_WINDOW = 16

# End-to-end metrics are medians over at least this many passes.
MIN_PASSES = 3

# rounds_per_s and cpu_s are given at a fixed host speed.  perfbench_probe
# times a fixed kernel that runs no dynvote code; it runs before the first
# pass and after every pass, and each pass's seconds are multiplied by
# PROBE_REF_S / (mean of the two probes around it).  The shared host's speed
# drifts by 25-35 % over minutes, far slower than a run; the probe follows
# the drift and cancels much of it.  PROBE_REF_S is about the probe's median
# on the 4-vCPU x86-64 host the bounds were set on, so there the figures
# stay close to plain seconds.
PROBE_REF_S = 0.2

# setup_s is the median of at least SETUP_SAMPLES driver starts: every
# pass's, SETUP_SAMPLES_PER_PASS set-up-only starts before each pass, and
# more set-up-only starts at the end if needed.  Spreading the starts over
# the run averages over the host's state instead of sampling one moment.
SETUP_SAMPLES = 31
SETUP_SAMPLES_PER_PASS = 8

# A driver that runs longer than this is killed and the run fails.
DRIVER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def base_seed(seed):
    return DEFAULT_SEED + (seed - DEFAULT_SEED) % SEED_WINDOW


def build(target):
    """Configure once, then build `target` incrementally; the log goes to
    .bench_build/perfbench/build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no src/CMakeLists.txt next to perfbench/: "
                         "nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                raise BenchError("cmake configure failed, see " + log_path)
        jobs = str(min(4, os.cpu_count() or 1))
        command = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
        if subprocess.run(command, stdout=log, stderr=log).returncode:
            raise BenchError("build of %s failed, see %s" % (target, log_path))
    return os.path.join(BUILD, target)


def driver_env(workload):
    """The drivers run with no DV_* knob from the caller's environment:
    artifacts go to the benchmark's own directory and progress is off."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DV_")}
    env["DV_ARTIFACT_DIR"] = os.path.join(BUILD, "artifacts", workload)
    env["DV_PROGRESS"] = "0"
    return env


def now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def run_driver(argv, env):
    """Run a driver; return (start_ns, parsed stdout lines)."""
    start = now_ns()
    try:
        done = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % os.path.basename(argv[0]))
    if done.returncode != 0:
        raise BenchError("%s exited %d: %s" % (os.path.basename(argv[0]),
                                               done.returncode,
                                               done.stderr.strip()))
    return start, [json.loads(line) for line in done.stdout.splitlines()]


class Checker:
    """Counts failed cases and records every failed check."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        with open(REFERENCES) as f:
            refs = json.load(f)
        self.baselines = refs["committed_baselines"]
        self.reference = refs["workloads"].get(workload, {}).get(str(seed))
        self.check_baselines = (workload == "fresh_smoke"
                                and seed == DEFAULT_SEED)
        if self.reference is None:
            self.problem("no reference fingerprints for %s at seed %d"
                         % (workload, seed))

    def problem(self, text):
        self.problems.append(text)

    def cases(self, pass_record):
        """Check every case of a checked pass against the references."""
        for sweep in pass_record["sweeps"]:
            expected = (self.reference or {}).get(sweep["name"], [])
            got = sweep["case_fingerprints"]
            count = max(len(expected), len(got))
            self.attempted += count
            if sweep["error"]:
                self.failed += count
                self.problem("%s threw: %s" % (sweep["name"], sweep["error"]))
                continue
            bad = sum(1 for i in range(count)
                      if i >= len(got) or i >= len(expected)
                      or got[i] != expected[i])
            self.failed += bad
            if bad:
                self.problem("%s: %d case(s) differ from the reference"
                             % (sweep["name"], bad))
            baseline = self.baselines.get(sweep["name"])
            if self.check_baselines and sweep["fingerprint"] != baseline:
                self.problem("%s fingerprint %s is not the committed baseline"
                             % (sweep["name"], sweep["fingerprint"]))

    def same(self, what, values):
        """Every count must repeat exactly across the passes of a run."""
        if len(set(json.dumps(v, sort_keys=True) for v in values)) > 1:
            self.problem("count drift in %s: %s" % (what, values))

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def counts(pass_record, keys=("rounds", "deliveries", "invariant_checks")):
    return {s["name"]: [s[k] for k in keys] for s in pass_record["sweeps"]}


def total(pass_record, key):
    return sum(s[key] for s in pass_record["sweeps"])


def rounds_per_s(pass_record):
    return total(pass_record, "rounds") / total(pass_record, "wall_s")


def setup_seconds(start_ns, lines):
    return (lines[0]["setup_mono_ns"] - start_ns) / 1e9


def untraced(args, seed, checker):
    """One fresh driver per pass until --seconds is spent (at least
    MIN_PASSES), with set-up-only starts spread between them."""
    argv = [build("perfbench_sweep"), "--workload", args.workload,
            "--base-seed", str(seed)]
    probe_argv = [build("perfbench_probe")]
    env = driver_env(args.workload)
    passes, setups, rss = [], [], []

    def setup_only(count):
        for _ in range(count):
            start, lines = run_driver(argv + ["--setup-only"], env)
            setups.append(setup_seconds(start, lines))

    def probe():
        return run_driver(probe_argv, env)[1][0]["probe_s"]

    probes = [probe()]
    started, last = time.monotonic(), 0.0
    while (len(passes) < MIN_PASSES
           or time.monotonic() - started + last <= args.seconds):
        setup_only(SETUP_SAMPLES_PER_PASS)
        begin = time.monotonic()
        start, lines = run_driver(argv, env)
        probes.append(probe())
        last = time.monotonic() - begin
        setups.append(setup_seconds(start, lines))
        passes.append(lines[1])
        rss.append(lines[2]["peak_rss_mb"])
    setup_only(SETUP_SAMPLES - len(setups))
    for p in passes:
        checker.cases(p)
    checker.same("results counts", [counts(p) for p in passes])
    # Host-speed factor of each pass: reference probe time over the mean of
    # the probes just before and just after it.
    speed = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    print("unscaled medians: rounds_per_s %.1f, cpu_s %.4f; probe_s %.4f"
          % (median([rounds_per_s(p) for p in passes]),
             median([total(p, "cpu_s") for p in passes]), median(probes)))
    return {
        "rounds_per_s": (median([rounds_per_s(p) / f
                                 for p, f in zip(passes, speed)]), "1/s"),
        "cpu_s": (median([total(p, "cpu_s") * f
                          for p, f in zip(passes, speed)]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }


def manifest_value(pass_record, key, absent):
    """Sum of a manifest key over the sweeps; a key missing from every
    sweep is reported as 0 and listed in `absent`."""
    values = [s["manifest"].get(key) for s in pass_record["sweeps"]]
    present = [v for v in values if v is not None]
    if not present:
        absent.add(key)
        return 0.0
    return float(sum(present))


def core_seconds(cell, ticks_per_ns):
    """Sampled time scaled to every call, less the cost of the empty time
    read pair taken with each sample."""
    if cell["samples"] == 0:
        return 0.0
    ticks = max(0.0, cell["sampled_ticks"] - cell["pair_ticks"])
    return ticks / cell["samples"] * cell["calls"] / ticks_per_ns / 1e9


def clock_pair_ns(core, ticks_per_ns):
    """Mean cost of one empty time read pair over every sample taken."""
    cells = [c[m] for c in core.values()
             for m in ("incoming", "view_changed", "poll")]
    samples = sum(c["samples"] for c in cells)
    pair = sum(c["pair_ticks"] for c in cells)
    return pair / samples / ticks_per_ns if samples else 0.0


def traced(args, seed, checker):
    """One fresh traced driver per cycle until --seconds is spent (at least
    one); each metric is the median over cycles."""
    argv = [build("perfbench_traced"), "--workload", args.workload,
            "--base-seed", str(seed)]
    env = driver_env(args.workload)
    absent = set()
    per_cycle = []
    started, last = time.monotonic(), 0.0
    while not per_cycle or time.monotonic() - started + last <= args.seconds:
        begin = time.monotonic()
        _, lines = run_driver(argv, env)
        last = time.monotonic() - begin
        records = {}
        for line in lines[1:-1]:
            key = line.get("pass") or next(iter(line))
            records.setdefault(key, []).append(line)
        halves = [half_metrics(records, h, lines[0]["ticks_per_ns"], checker,
                               absent) for h in (0, 1)]
        per_cycle.append(combine(halves, checker))

    checker.same("exact counts", [exact(m) for m in per_cycle])
    if absent:
        print("absent manifest keys (reported as 0): "
              + ", ".join(sorted(absent)))
    metrics = {name: median([m[name] for m in per_cycle])
               for name in per_cycle[0]}
    attributed = sum(v for k, v in metrics.items()
                     if k.startswith("core.") and k.endswith("_s"))
    attributed += metrics["sim.invariants_s"]
    if attributed > metrics["sim.compute_s"]:
        checker.problem("attributed %.3f s exceeds sim.compute_s %.3f s"
                        % (attributed, metrics["sim.compute_s"]))
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def half_metrics(records, h, ticks_per_ns, checker, absent):
    """The ledger from one half of a cycle's palindrome."""
    plain, noinv = records["untraced"][h], records["noinv"][h]
    decorated = records["traced"][h]
    core = records["core"][h]["core"]
    fixed = records["core_fixed"][h]["core_fixed"]
    snapshot = records["snapshot"][0]["snapshot"]
    for p in (plain, decorated):
        checker.cases(p)
    for a, b in zip(plain["sweeps"], decorated["sweeps"]):
        if a["fingerprint"] != b["fingerprint"]:
            checker.problem("%s: traced fingerprint %s != untraced %s"
                            % (a["name"], b["fingerprint"], a["fingerprint"]))
    if counts(noinv, ("rounds", "deliveries")) != counts(
            plain, ("rounds", "deliveries")):
        checker.problem("check_invariants=false moved rounds or deliveries")

    m = {}
    compute = total(plain, "compute_s")
    # Worker time not spent in a case: for one worker, wall − compute.
    m["runner.overhead_s"] = sum(
        s["wall_s"] * s["jobs"] for s in plain["sweeps"]) - compute
    m["runner.manifest_s"] = total(plain, "manifest_s")
    m["runner.busy_fraction"] = compute / (m["runner.overhead_s"] + compute)
    m["runner.shards"] = manifest_value(plain, "shards", absent)
    m["runner.steals"] = manifest_value(plain, "steals", absent)
    m["sim.compute_s"] = compute
    m["sim.rounds"] = total(plain, "rounds")
    m["sim.deliveries"] = total(plain, "deliveries")
    m["sim.invariant_checks"] = total(plain, "invariant_checks")
    m["sim.ns_per_delivery"] = compute * 1e9 / m["sim.deliveries"]
    # Without invariant checks the runner no longer shards cascading cases,
    # so there the difference also holds the scout replay and the restores,
    # which are timed on their own and taken out.  Clamped after the halves
    # are combined.
    m["sim.invariants_s"] = (compute - total(noinv, "compute_s")
                             - snapshot["scout_s"] - snapshot["restore_s"])

    hits = manifest_value(plain, "batch.prefix_hits", absent)
    misses = manifest_value(plain, "batch.prefix_misses", absent)
    m["batch.prefix_hit_rate"] = (hits / (hits + misses)
                                  if hits + misses else 0.0)
    m["batch.prefix_rounds_adopted"] = manifest_value(
        plain, "batch.prefix_rounds_adopted", absent)
    m["batch.ff_rounds_skipped"] = manifest_value(
        plain, "batch.ff_rounds_skipped", absent)

    m["snapshot.scout_s"] = snapshot["scout_s"]
    m["snapshot.restore_s"] = snapshot["restore_s"]
    m["snapshot.bytes"] = snapshot["bytes"]

    # Core inside compute_seconds: the full pass less the zero-run pass,
    # which holds the runner's per-case probe world.  The seconds are moved
    # into the untraced pass's time base by the ratio of the two passes'
    # compute, so host drift between the passes cancels.
    scale = compute / total(decorated, "compute_s")
    for alg in ALGORITHMS:
        full, base = core[alg], fixed[alg]
        for method in ("incoming", "view_changed", "poll"):
            m["core.%s.%s_s" % (alg, method)] = scale * (
                core_seconds(full[method], ticks_per_ns)
                - core_seconds(base[method], ticks_per_ns))
        calls = {method: full[method]["calls"] - base[method]["calls"]
                 for method in ("incoming", "view_changed", "poll")}
        sends = full["sends"] - base["sends"]
        m["core.%s.incoming_calls" % alg] = calls["incoming"]
        m["core.%s.views" % alg] = calls["view_changed"]
        m["core.%s.polls" % alg] = calls["poll"]
        m["core.%s.sends" % alg] = sends
        m["core.%s.send_ratio" % alg] = (sends / calls["poll"]
                                         if calls["poll"] else 0.0)
    m["gcs.views_installed"] = manifest_value(
        plain, "gcs.views_installed", absent)
    with_allocs = manifest_value(plain, "steady_allocs_per_round.cases", absent)
    m["alloc.steady_per_round"] = (
        manifest_value(plain, "steady_allocs_per_round", absent)
        / with_allocs if with_allocs else 0.0)

    m["trace.clock_pair_ns"] = clock_pair_ns(core, ticks_per_ns)
    m["trace.base_rounds_per_s"] = rounds_per_s(plain)
    m["trace.rounds_per_s"] = rounds_per_s(decorated)
    m["trace.overhead_pct"] = 100.0 * (
        m["trace.base_rounds_per_s"] / m["trace.rounds_per_s"] - 1.0)
    return m


def combine(halves, checker):
    """Mean of the two halves of a cycle; counts must agree exactly."""
    checker.same("exact counts", [exact(m) for m in halves])
    m = {name: sum(h[name] for h in halves) / len(halves)
         for name in halves[0]}
    m["sim.invariants_s"] = max(0.0, m["sim.invariants_s"])
    core_s = sum(v for k, v in m.items()
                 if k.startswith("core.") and k.endswith("_s"))
    m["gcs.self_s"] = m["sim.compute_s"] - core_s - m["sim.invariants_s"]
    return m


def exact(metrics):
    return {k: v for k, v in metrics.items()
            if k in EXACT or unit_of(k) == "count"}


# Units of the per-layer metrics that are not seconds (suffix _s) or counts.
UNITS = {
    "runner.steals": "steals",
    "runner.busy_fraction": "ratio",
    "sim.ns_per_delivery": "ns",
    "batch.prefix_hit_rate": "ratio",
    "snapshot.bytes": "bytes",
    "alloc.steady_per_round": "1/round",
    "trace.clock_pair_ns": "ns",
    "trace.base_rounds_per_s": "1/s",
    "trace.rounds_per_s": "1/s",
    "trace.overhead_pct": "%",
}

# Metrics that must repeat exactly besides the counts; runner.steals
# depends on thread scheduling and is left out.
EXACT = {"snapshot.bytes"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("send_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seed = base_seed(args.seed)
    checker = None
    try:
        checker = Checker(args.workload, seed)
        metrics = (traced if args.trace else untraced)(args, seed, checker)
    except (BenchError, OSError, ValueError, KeyError, IndexError,
            ZeroDivisionError) as e:
        # A run whose every sweep threw has no times to divide by; its
        # failed checks are still worth reporting.
        for text in checker.problems if checker else []:
            print("check failed: " + text, file=sys.stderr)
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for text in checker.problems:
        print("check failed: " + text, file=sys.stderr)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
