#!/usr/bin/env bash
# Runs the perf-regression benchmark set and refreshes BENCH_pipeline.json.
#
# The JSON file is a trajectory: `history` entries are curated by hand (one
# per PR that moved a number) and preserved across refreshes; `latest` is
# overwritten with this run's suite timing by vpbench -benchjson.
#
# The observability layer's overhead contract (disabled path free, enabled
# path — spans, events, counters, gauges and the histogram buckets behind
# /metrics — cheap) is measured every run and recorded in
# BENCH_obs_overhead.json next to BENCH_pipeline.json.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"

echo "== interpreter hot-loop microbenchmarks (internal/cpu) =="
go test -run '^$' \
  -bench 'BenchmarkMachineStep|BenchmarkMachineRunTimed|BenchmarkTimedBlock|BenchmarkTimedNoCache|BenchmarkMemory|BenchmarkCacheAccess|BenchmarkTimingObserve' \
  -benchtime "$BENCHTIME" ./internal/cpu/

echo
echo "== observer microbenchmarks (internal/obs) =="
go test -run '^$' \
  -bench 'BenchmarkNopObserver|BenchmarkRecorderObserver' \
  -benchtime "$BENCHTIME" ./internal/obs/

echo
echo "== detector, timed-run and suite-parallelism benches (repo root) =="
go test -run '^$' \
  -bench 'BenchmarkTable2Machine|BenchmarkHSDThroughput|BenchmarkSuiteJobs' \
  -benchtime "$BENCHTIME" .

echo
echo "== static-verifier serial cost per pipeline run (internal/verify) =="
go test -run '^$' -bench 'BenchmarkPipelineVerify' \
  -benchtime "$BENCHTIME" ./internal/verify/

echo
echo "== package stage of one daemon repack (internal/core) =="
# vpr's daemon-shaped profile (its whole run plus 200 phase-shifted
# records, about 480 packages, -equiv on): a pass that rescans the whole
# program per package shows up here as a quadratic jump.
go test -run '^$' -bench 'BenchmarkPackageStageDaemon' \
  -benchtime "$BENCHTIME" ./internal/core/

echo
echo "== the same repack's successor, reusing its proofs (internal/core) =="
# vpr's second repack (25 more shifted records) proving through the first
# repack's equiv.Memo, as vpackd does: every proof is reused, so this is
# the package stage without Prove.
go test -run '^$' -bench 'BenchmarkRepackReuseDaemon' \
  -benchtime "$BENCHTIME" ./internal/core/

echo
echo "== full suite wall time (scale 1, default -j) + verifier/equiv overhead =="
# -verifyoverhead re-runs the suite with the static verifier gating every
# stage and records verify_wall_seconds / verify_overhead_fraction in the
# benchjson. The verifier's serial cost is ~4% of pipeline CPU (see the
# BenchmarkPipelineVerify delta above); the suite-level fraction target is
# < 3%, met outright when suite parallelism overlaps the verify work and
# noise-bounded on single-core hosts. Best-of-7 on both sides keeps
# scheduler luck out of the comparison, and the recorded fraction floors
# at zero (the verifier cannot make the suite faster).
#
# -storecompare additionally times one suite run against a fresh artifact
# store (cold: everything computed and written through) and one against
# the store it left behind (warm: every profile and package served from
# disk, zero misses or vpbench exits nonzero), recording both walls and
# the warm hit tally under store_cold_wall_seconds / store_warm_wall_seconds
# / "store" in the benchjson. The main suite stays storeless so
# wall_seconds remains comparable across PRs.
#
# -equivoverhead records translation validation's cost in two regimes.
# equiv_overhead_fraction is the cold cost: a storeless suite run proving
# every optimized package from scratch by symbolic path enumeration —
# expensive by design (it visits every acyclic path of every package) and
# reported for visibility, not budgeted. equiv_warm_overhead_fraction is
# the steady-state cost: certificates ride the package-set artifact, so a
# store-backed rerun serves proved packages from disk and re-proves
# nothing. That is what a continuously-operating pipeline pays per run
# (prove once per image+config, reuse until either changes), and the
# budget is < 5%: a larger fraction means proofs stopped being served
# from the store and the key scheme or artifact round-trip regressed.
store_tmp="$(mktemp -d)"
trap 'rm -rf "$store_tmp"' EXIT
go run ./cmd/vpbench -q -scale 1 -reps 7 -verifyoverhead -equivoverhead \
  -store "$store_tmp" -storecompare -benchjson BENCH_pipeline.json >/dev/null
echo "BENCH_pipeline.json refreshed:"
grep -E '"wall_seconds"|"jobs"|"insts_per_second"|"blockcache_hit_rate"|"superblock_|"verify_|"equiv_|"store_' BENCH_pipeline.json | tail -16

# Enforce the steady-state equiv budget recorded above.
python3 - <<'EOF'
import json
d = json.load(open("BENCH_pipeline.json"))["latest"]
f = d.get("equiv_warm_overhead_fraction")
cold = d.get("equiv_overhead_fraction")
if f is None:
    raise SystemExit("bench.sh: equiv_warm_overhead_fraction missing from BENCH_pipeline.json")
print(f"equiv overhead: cold {cold:.1%} (full proving), warm {f:.1%} (store-served, budget < 5%)")
if f >= 0.05:
    raise SystemExit(f"bench.sh: steady-state equiv overhead {f:.1%} exceeds the 5% budget")
EOF

echo
echo "== drift-tracker ingest cost (internal/drift) =="
# Per-record cost of the daemon's drift path: an enabled tracker with a
# baseline set (window aggregation + scoring at window close) vs a
# disabled tracker (-driftwindow 0), which must be within noise of free —
# a single atomic-free Enabled() check per record.
drift_tmp="$(mktemp)"
trap 'rm -f "$drift_tmp"; rm -rf "$store_tmp"' EXIT
go test -run '^$' -bench 'BenchmarkTrackerObserve' \
  -benchtime "$BENCHTIME" ./internal/drift/ | tee "$drift_tmp"
drift_on=$(awk '$1 ~ /^BenchmarkTrackerObserve-|^BenchmarkTrackerObserve$/ {print $3}' "$drift_tmp")
drift_off=$(awk '$1 ~ /^BenchmarkTrackerObserveDisabled/ {print $3}' "$drift_tmp")

echo
echo "== observer overhead (disabled vs enabled suite run) =="
obs_tmp="$(mktemp)"
trap 'rm -f "$obs_tmp" "$drift_tmp"; rm -rf "$store_tmp"' EXIT
go run ./cmd/vpbench -q -scale 1 -metrics -benchjson "$obs_tmp" >/dev/null
# The trajectory file repeats "wall_seconds" in history entries; the last
# occurrence is this run's `latest` block. The tmp file has only one.
disabled=$(grep '"wall_seconds"' BENCH_pipeline.json | tail -1 | grep -o '[0-9.]*')
enabled=$(grep '"wall_seconds"' "$obs_tmp" | tail -1 | grep -o '[0-9.]*')
awk -v d="$disabled" -v e="$enabled" -v don="${drift_on:-0}" -v doff="${drift_off:-0}" 'BEGIN {
  delta = (d > 0) ? (e - d) / d : 0
  printf "{\n  \"schema\": \"obs-overhead/v1\",\n  \"disabled_wall_seconds\": %.3f,\n  \"enabled_wall_seconds\": %.3f,\n  \"overhead_fraction\": %.4f,\n  \"drift_enabled_ns_per_record\": %.1f,\n  \"drift_disabled_ns_per_record\": %.1f\n}\n", d, e, delta, don, doff
}' > BENCH_obs_overhead.json
echo "BENCH_obs_overhead.json refreshed:"
cat BENCH_obs_overhead.json
