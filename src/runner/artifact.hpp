// Versioned JSON run artifacts ("manifests") for sweeps.
//
// One manifest per sweep, written next to the CSV/stdout outputs the
// benches already produce: the full configuration (cases, seeds, runs),
// provenance (schema version, git describe, creation time, DV_JOBS), and
// per-case measurements -- availability, in-run availability, ambiguity
// histograms, wire stats, invariant-check counts, wall/compute time and
// runs/sec.  This is the machine-readable perf/availability trajectory of
// the repo: comparing two manifests of the same sweep across commits shows
// both statistical drift and speed drift.
//
// Layout (schema "dynvote.sweep.v3"):
//   {
//     "schema": "dynvote.sweep.v3",
//     "sweep": "<name>", "created_unix": ..., "git_describe": "...",
//     "jobs": N, "wall_seconds": ..., "total_runs": ...,
//     "results_fingerprint": "<hex>",
//     "cases": [ { "algorithm": "...", "processes": ..., "changes": ...,
//                  "rate": ..., "crash_fraction": ..., "mode": "...",
//                  "base_seed": ..., "runs": ..., "successes": ...,
//                  "availability_percent": ...,
//                  "in_run_availability_percent": ...,
//                  "stable_histogram": {"buckets": [..], "samples": ..,
//                                       "max_observed": ..},
//                  "in_progress_histogram": {...},
//                  "wire": {"messages_sent": .., "max_message_bytes": ..,
//                           "total_message_bytes": ..},
//                  "invariant_checks": .., "total_rounds": ..,
//                  "total_changes": .., "compute_seconds": ..,
//                  "runs_per_sec": .., "rounds_per_sec": ..,
//                  "total_deliveries": .., "deliveries_per_sec": ..,
//                  "shards": .., "steals": .. }, ... ],
//     "observability": { "counters": {name: value, ...},
//                        "gauges": {name: value, ...},
//                        "histograms": [ { "name": "...", "count": ..,
//                                          "sum": ..,
//                                          "buckets": [[pow2_index, n],..]
//                                        }, ... ] }
//                          <- src/obs metrics recorded during the sweep
//                             (local threads + aggregated fabric workers);
//                             volatile telemetry, never fingerprinted
//     "fabric": { "units_issued": .., "units_reissued": ..,
//                 "units_stolen": .., "duplicate_results": ..,
//                 "workers_connected": .., "workers_died": ..,
//                 "workers": [ { "peer": "...", "slots": ..,
//                                "units_done": .., "busy_seconds": ..,
//                                "died": bool }, ... ] }
//                          <- multi-host sweeps only (fabric/); volatile
//                             scheduling telemetry, never fingerprinted
//   }
//
// v3 adds the perf telemetry block (rounds_per_sec, total_deliveries,
// deliveries_per_sec) to each case.
//
// Everything timing- or scheduling-flavored (created_unix, git_describe,
// jobs, wall_seconds, compute_seconds, the per-sec rates, allocation
// telemetry, shards, steals) is legitimately volatile between reruns.  The
// deterministic remainder is exposed separately as `manifest_results_json`,
// whose bytes must be identical for any DV_JOBS / shard sizing /
// scheduling, and whose hash is stamped into the full manifest as
// "results_fingerprint" so two manifests can be compared for statistical
// drift at a glance.  That results document is pinned to its own schema
// string ("dynvote.sweep.v2", the layout it has had since v2) precisely so
// a manifest-layout bump like v3 -- which only adds volatile telemetry --
// cannot move the fingerprint of unchanged simulation results.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace dynvote {

/// Schema identifier stamped into every manifest; bump on layout changes.
inline constexpr const char* kSweepManifestSchema = "dynvote.sweep.v3";

/// Schema identifier embedded in the deterministic results document that
/// `results_fingerprint` hashes.  Deliberately NOT bumped with the
/// manifest schema: its layout is unchanged since v2, and keeping the
/// string fixed keeps fingerprints comparable across manifest versions.
inline constexpr const char* kSweepResultsSchema = "dynvote.sweep.v2";

/// Render the manifest document for a finished sweep.
std::string manifest_json(const SweepSpec& spec, const SweepResult& result);

/// Render only the deterministic subset -- sweep name, case coordinates,
/// and measured results; no timestamps, timing, worker counts, or shard
/// telemetry.  Bit-identical across any parallelism or shard sizing; the
/// runner tests compare these documents directly.
std::string manifest_results_json(const SweepSpec& spec,
                                  const SweepResult& result);

/// FNV-1a hash of `manifest_results_json`, as 16 hex digits.
std::string results_fingerprint(const SweepSpec& spec,
                                const SweepResult& result);

/// Write the manifest to `<artifact dir>/BENCH_<spec.name>.json` and
/// return the path.  The directory comes from DV_ARTIFACT_DIR (default
/// "artifacts", created on demand; "none"/"off"/"0" disables artifacts,
/// returning "").  Failures warn and return "" -- a sweep's results are
/// never discarded because a disk write failed.
std::string write_manifest(const SweepSpec& spec, const SweepResult& result);

/// Write `document` (a newline is appended) to `<artifact dir>/<filename>`
/// under the same DV_ARTIFACT_DIR discipline as `write_manifest`.  Returns
/// the path written, or "" when artifacts are disabled or the write
/// failed (failures warn, they never throw).  Other emitters -- the
/// microbenchmark manifest, notably -- share this so every artifact obeys
/// the one environment knob.
std::string write_artifact_document(const std::string& filename,
                                    const std::string& document);

/// Binary sibling of `write_artifact_document` (no trailing newline):
/// writes `bytes` to `<artifact dir>/<filename>` under the same
/// DV_ARTIFACT_DIR discipline.  Used for dynvote.events.v1 trace files.
std::string write_artifact_bytes(const std::string& filename,
                                 const std::vector<std::byte>& bytes);

/// The `git describe` string baked into this build ("unknown" when the
/// build was configured outside a git checkout).
const char* artifact_git_describe();

}  // namespace dynvote
