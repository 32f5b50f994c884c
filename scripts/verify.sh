#!/usr/bin/env bash
# Tier-1 verification: build, vet (including the repo's own vplint checks),
# full test suite, race-detector passes over the parallel evaluation
# engine's worker pool and the observability + telemetry-serving layers it
# reports through, a verifier-gated suite pass, and the trace regression
# gate (a fresh pipeline trace diffed against the committed golden).
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go vet ./internal/obs/...
go vet ./internal/telemetry/...

# Repository-specific static checks (insts-mutation, dropped-observer,
# mutate-after-hash) via the vet unitchecker protocol; vplint needs an
# absolute path.
mkdir -p bin
go build -o bin/vplint ./cmd/vplint
go vet -vettool="$(pwd)/bin/vplint" ./...
go test ./...
# Assembler fuzzing: arbitrary source must assemble to an error or a
# verified program, and a linearized program must simulate (limited to a
# few hundred instructions) without panicking. The seed corpus lives in
# internal/asm/testdata/fuzz/FuzzAssemble.
go test ./internal/asm -run '^$' -fuzz '^FuzzAssemble$' -fuzztime 10s
# perfbench is its own module (replace repro => ../), so the root
# `go test ./...` skips it; vet and test it against this checkout.
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)
go test -race ./internal/report/...
go test -race ./internal/obs/...
go test -race ./internal/telemetry/...
# Two-tier timed simulation: race the whole cpu package — the block
# cache's concurrent-use shape (shared image, private caches), the
# superblock tier's promotion/demotion machinery, and the randomized
# tier-equivalence property tests all run under the race detector.
go test -race ./internal/cpu/...
# Staged pipeline API + daemon: artifact round trips, staleness checks,
# the resumability golden (staged == straight-through, byte for byte)
# and vpackd's sharded ingest under 1000 concurrent streams.
go test -race ./cmd/vpackd/... ./internal/core/...
# Drift telemetry: windowed trackers and the bounded event ring under
# concurrent writers/readers.
go test -race ./internal/drift/...
# Persistent artifact store: chunked segments, manifest recovery,
# corruption-safety (truncated/bit-flipped/missing segments, stale or
# tampered manifests) and GC, all under the race detector.
go test -race ./internal/cas/...
# Translation validation: concurrent proofs share nothing but the
# read-only snapshot; race the whole prover, including the mutation
# corpus (every seeded semantic bug must be refuted with a usable
# counterexample — TestMutationCorpus fails otherwise).
go test -race ./internal/equiv/...

# Verifier-gated pipeline pass: every stage's output re-checked against
# the internal/verify rule catalog on a real multi-benchmark run. Any
# rule firing exits 3 and fails verification here.
go run ./cmd/vpverify -q -bench gzip -input A -scale 1
go run ./cmd/vpverify -q -bench perl -input A -scale 1

# Equivalence-gated pipeline pass: every optimized package of every
# variant symbolically proved against the region code it replaced (exit
# 4 on refutation — a live miscompile in the opt/pack passes).
go run ./cmd/vpverify -q -equiv -bench gzip -input A -scale 1
go run ./cmd/vpverify -q -equiv -bench m88ksim -input A -scale 1

# Trace regression gate: the golden is Normalize()d (wall times zeroed),
# so this diff bites exactly on the deterministic pipeline counters —
# phases detected, regions grown, packages built/linked, simulated
# cycles. A counter regressing >10% fails verification. The gate runs
# three times — superblocks on (the default), superblocks off (tier 0
# only), and block cache off entirely (the oracle loop) — because all
# three timed paths must be bit-identical: one golden serves them all.
# Profiling runs on the selected engine too (the Hot Spot Detector is fed
# by the engine's conditional-branch retire sink), so each pass also
# proves that engine detects exactly the golden's phases.
trace_tmp="$(mktemp)"
trap 'rm -f "$trace_tmp"' EXIT
go run ./cmd/vpack -bench gzip -input A -scale 1 -q -log off -trace "$trace_tmp" >/dev/null
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"
go run ./cmd/vpack -bench gzip -input A -scale 1 -q -log off -superblock=off -trace "$trace_tmp" >/dev/null
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"
go run ./cmd/vpack -bench gzip -input A -scale 1 -q -log off -blockcache=off -trace "$trace_tmp" >/dev/null
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"
# Fourth pass: -store enabled against a fresh directory. The store-aware
# pipeline path must emit a byte-identical trace (profile write-through
# happens outside the observed spans), so the same golden gates it.
store_tmp="$(mktemp -d)"
trap 'rm -f "$trace_tmp"; rm -rf "$store_tmp"' EXIT
go run ./cmd/vpack -bench gzip -input A -scale 1 -q -log off -store "$store_tmp/st" -trace "$trace_tmp" >/dev/null
go run ./cmd/vptrace diff -threshold 0.10 testdata/trace_golden.json "$trace_tmp"

# Paper-table golden: the suite's tables and figures at default scale must
# match the committed output byte for byte, sequential and parallel. The
# golden is never regenerated by a change that claims to keep outputs.
go build -o bin/vpbench ./cmd/vpbench
for j in 1 2; do
    bin/vpbench -q -j "$j" >"$store_tmp/tables.txt"
    cmp testdata/paper_tables.golden "$store_tmp/tables.txt" \
        || { echo "paper tables at -j $j differ from testdata/paper_tables.golden" >&2; exit 1; }
done

# Hot-spot capture smokes: the annotated detector walkthrough and the
# offline drift report both capture through core.DetectHotSpots, the
# path vpbench's load generator and the profile stage share.
go run ./examples/hsdwatch >/dev/null
go run ./cmd/vpdump -bench m88ksim -drift -driftshift >/dev/null

# Store cold→warm→restart smoke. Cold suite populates a fresh store;
# the warm rerun must serve every profile and package from it (vpbench
# exits nonzero on any warm miss, and the benchjson records the tally —
# assert it here too); vpcache must verify the store clean.
go build -o bin/vpbench ./cmd/vpbench
go build -o bin/vpcache ./cmd/vpcache
bin/vpbench -q -bench m88ksim,perl -scale 1 -store "$store_tmp/suite" -storecompare \
    -benchjson "$store_tmp/bench.json" >/dev/null
grep -q '"profile_misses": 0' "$store_tmp/bench.json" \
    || { echo "warm store run recorded profile misses" >&2; exit 1; }
grep -q '"package_misses": 0' "$store_tmp/bench.json" \
    || { echo "warm store run recorded package misses" >&2; exit 1; }
grep -q '"store_warm_wall_seconds"' "$store_tmp/bench.json" \
    || { echo "benchjson missing store wall times" >&2; exit 1; }
bin/vpcache verify -store "$store_tmp/suite" >/dev/null

# Daemon smoke test: boot vpackd on a free port, stream 100 hot-spot
# records from 8 concurrent clients (vpbench's load-generator mode,
# which also fetches the published package and asserts every expected
# /metrics series — queue, repack, queue-wait and vp_drift_* — naming
# any that are missing), then induce a phase shift (-phaseshift) and
# confirm the drift score demonstrably rises: a nonzero vp_drift_peak
# must appear on /metrics and the vptrace drift view must report the
# program. Finally verify SIGTERM shuts the daemon down cleanly
# (exit 0, queue drained). The -driftwindow knob is the shared
# internal/cliflags flag and must match on both sides so vpbench's
# shift burst spans whole tracker windows.
daemon_dir="$(mktemp -d)"
daemon_pid=""
trap 'rm -f "$trace_tmp"; rm -rf "$store_tmp" "$daemon_dir"; [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true' EXIT
go build -o bin/vpackd ./cmd/vpackd
go build -o bin/vpbench ./cmd/vpbench
go build -o bin/vptrace ./cmd/vptrace
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr" -bench m88ksim -scale 1 -batch 10 \
    -driftwindow 4 -driftring 32 -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr" ] || { echo "vpackd never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr")"
bin/vpbench -daemon "http://$daemon_addr" -streams 8 -records 100 -phaseshift -driftwindow 4 -log off
curl -sf "http://$daemon_addr/v1/packages/m88ksim/latest" >/dev/null
curl -sf "http://$daemon_addr/v1/provenance/m88ksim/latest" | grep -q '"trace"'
curl -sf "http://$daemon_addr/v1/drift/m88ksim" | grep -q '"enabled": *true'
metrics="$(curl -sf "http://$daemon_addr/metrics")"
echo "$metrics" | grep -q '^vp_vpackd_queue_depth'
echo "$metrics" | grep -q '^vp_vpackd_repack_latency_us'
echo "$metrics" | grep -q '^vp_vpackd_queue_wait_us_count'
echo "$metrics" | awk '$1=="vp_drift_peak"{found=1; exit !($2>0)} END{if(!found) exit 1}' \
    || { echo "phase shift left vp_drift_peak at zero" >&2; exit 1; }
curl -sf "http://$daemon_addr/trace" > "$daemon_dir/trace.json"
bin/vptrace drift "$daemon_dir/trace.json" | grep -q '^m88ksim' \
    || { echo "vptrace drift view missing m88ksim row" >&2; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd did not exit cleanly" >&2; exit 1; }
daemon_pid=""

# Daemon store restart: boot with -store, ingest enough records to
# trigger a repack (which persists the version + provenance), SIGTERM
# (drains and fsyncs the manifest), then reboot on the same store
# directory and fetch the previous latest package and provenance
# WITHOUT streaming a single record — restart recovery, not a repack.
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr2" -bench m88ksim -scale 1 -batch 10 \
    -store "$daemon_dir/store" -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr2" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr2" ] || { echo "vpackd (store) never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr2")"
bin/vpbench -daemon "http://$daemon_addr" -streams 4 -records 50 -log off
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd (store) did not exit cleanly" >&2; exit 1; }
daemon_pid=""
bin/vpackd -addr 127.0.0.1:0 -addrfile "$daemon_dir/addr3" -bench m88ksim -scale 1 -batch 10 \
    -store "$daemon_dir/store" -log off &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -s "$daemon_dir/addr3" ] && break
    sleep 0.1
done
[ -s "$daemon_dir/addr3" ] || { echo "vpackd (restart) never wrote its address" >&2; exit 1; }
daemon_addr="$(cat "$daemon_dir/addr3")"
curl -sf "http://$daemon_addr/v1/packages/m88ksim/latest" >/dev/null \
    || { echo "restarted vpackd lost the published package" >&2; exit 1; }
curl -sf "http://$daemon_addr/v1/provenance/m88ksim/latest" | grep -q '"trace"' \
    || { echo "restarted vpackd lost the provenance record" >&2; exit 1; }
curl -sf "http://$daemon_addr/metrics" | grep -q '^vp_vpackd_versions_recovered [1-9]' \
    || { echo "restarted vpackd recovered no versions" >&2; exit 1; }
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "vpackd (restart) did not exit cleanly" >&2; exit 1; }
daemon_pid=""

echo "tier-1 verify: OK"
