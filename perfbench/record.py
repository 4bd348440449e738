#!/usr/bin/env python3
"""Record perfbench/references.json: the per-case results fingerprints of
every workload at every base seed run.py can select.

    python3 perfbench/record.py

Run it only when a change is meant to alter simulation results, and say so
in the commit.  It refuses to write a file in which fresh_smoke at the
default seed differs from the committed bench/baselines fingerprints, or in
which two runs of the driver disagree.
"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run


def record(workload, seed, binary):
    argv = [binary, "--workload", workload, "--base-seed", str(seed)]
    passes = [run.run_driver(argv, run.driver_env(workload))[1][1]
              for _ in range(2)]
    cases = [{s["name"]: s["case_fingerprints"] for s in p["sweeps"]}
             for p in passes]
    errors = [s["error"] for p in passes for s in p["sweeps"] if s["error"]]
    if errors or any(c != cases[0] for c in cases):
        raise run.BenchError("%s seed %d: %s" % (
            workload, seed, errors or "passes disagree"))
    sweeps = {s["name"]: s["fingerprint"] for s in passes[0]["sweeps"]}
    return cases[0], sweeps


def main():
    with open(run.REFERENCES) as f:
        refs = json.load(f)
    binary = run.build("perfbench_sweep")
    jobs = [(w, run.DEFAULT_SEED + i) for w in run.WORKLOADS
            for i in range(run.SEED_WINDOW)]
    # Two drivers at a time: cascade_sharded uses two threads itself.
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record(*job, binary), jobs))
    refs["workloads"] = {w: {} for w in run.WORKLOADS}
    for (workload, seed), (cases, sweeps) in zip(jobs, results):
        refs["workloads"][workload][str(seed)] = cases
        if workload == "fresh_smoke" and seed == run.DEFAULT_SEED:
            if sweeps != refs["committed_baselines"]:
                print("fresh_smoke does not reproduce bench/baselines: %s"
                      % sweeps, file=sys.stderr)
                return 1
    with open(run.REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
