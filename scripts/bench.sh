#!/bin/sh
# bench.sh — the benchmark-trajectory harness for the shared crypto plane.
#
# Modes:
#   ./scripts/bench.sh --smoke   one iteration of every benchmark; proves the
#                                suite still runs (check.sh uses this), emits
#                                nothing.
#   ./scripts/bench.sh           the full trajectory: runs the whole suite
#                                once, then measures the crypto-plane
#                                benchmarks (warm and cold end-to-end study,
#                                chain-store and handshake-memo micro
#                                benches), the sharded-coordinator pair
#                                (single shard vs 4 faulted shards), and the
#                                longitudinal three-point sweep, and writes
#                                BENCH_9.json at the repo root with ns/op,
#                                allocs/op, the warm/cold speedup, the
#                                speedup against the pre-plane baseline,
#                                speedup_vs_single_shard, and the
#                                longitudinal-vs-three-studies ratio.
#                                Finishes by diffing against the previous
#                                BENCH_*.json snapshot
#                                (scripts/bench_compare.sh).
#
# BASELINE_STUDY_NS is BenchmarkStudyEndToEnd measured at the commit before
# the crypto plane landed, on the reference runner. It prices the plane's
# end-to-end win in the emitted JSON; it is not a gate (bench_compare.sh
# gates against the previous snapshot instead).
set -eu

cd "$(dirname "$0")/.."

BASELINE_STUDY_NS=3086205112
OUT=BENCH_9.json

if [ "${1:-}" = "--smoke" ]; then
    echo "==> bench smoke (-benchtime 1x)"
    go test . -run NONE -bench . -benchtime 1x
    exit 0
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "==> full benchmark suite (-benchtime 1x)"
go test . -run NONE -bench . -benchtime 1x

echo "==> end-to-end study, warm and cold (-benchtime 3x -benchmem)"
go test . -run NONE -bench 'BenchmarkStudyEndToEnd' -benchtime 3x -benchmem | tee "$raw"

echo "==> crypto-plane micro benches (-benchmem)"
go test . -run NONE -bench 'BenchmarkChainStore$|BenchmarkHandshakeMemo$' -benchmem | tee -a "$raw"

echo "==> sharded coordinator, one shard vs 4 faulted shards (-benchtime 3x -benchmem)"
go test . -run NONE -bench 'BenchmarkStudySingleShard$|BenchmarkStudyShardedEndToEnd$' -benchtime 3x -benchmem | tee -a "$raw"

echo "==> longitudinal three-point sweep (-benchtime 3x -benchmem)"
go test . -run NONE -bench 'BenchmarkLongitudinalStudy$' -benchtime 3x -benchmem | tee -a "$raw"

# Parse `BenchmarkName  N  123 ns/op  456 B/op  789 allocs/op` lines into the
# snapshot JSON. One "key": value per line so bench_compare.sh can read it
# back with awk alone.
awk -v out="$OUT" -v baseline="$BASELINE_STUDY_NS" '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix if present
        for (i = 2; i < NF; i++) {
            if ($(i + 1) == "ns/op")     ns[name] = $i
            if ($(i + 1) == "allocs/op") allocs[name] = $i
        }
        if (!(name in seen)) { order[++n] = name; seen[name] = 1 }
    }
    END {
        if (!("BenchmarkStudyEndToEnd" in ns) || !("BenchmarkStudyEndToEndCold" in ns)) {
            print "bench.sh: end-to-end benchmarks missing from output" > "/dev/stderr"
            exit 1
        }
        if (!("BenchmarkStudySingleShard" in ns) || !("BenchmarkStudyShardedEndToEnd" in ns)) {
            print "bench.sh: sharded benchmarks missing from output" > "/dev/stderr"
            exit 1
        }
        if (!("BenchmarkLongitudinalStudy" in ns)) {
            print "bench.sh: longitudinal benchmark missing from output" > "/dev/stderr"
            exit 1
        }
        # %.0f, not %d: ns/op can exceed 32-bit awk integers and micro
        # benches report fractional nanoseconds.
        printf "{\n" > out
        printf "  \"snapshot\": \"BENCH_9\",\n" >> out
        printf "  \"baseline_study_ns_per_op\": %s,\n", baseline >> out
        printf "  \"benchmarks\": {\n" >> out
        for (i = 1; i <= n; i++) {
            name = order[i]
            printf "    \"%s\": { \"ns_per_op\": %.0f, \"allocs_per_op\": %.0f }%s\n", \
                name, ns[name], allocs[name], (i < n ? "," : "") >> out
        }
        printf "  },\n" >> out
        printf "  \"speedup_vs_cold\": %.2f,\n", ns["BenchmarkStudyEndToEndCold"] / ns["BenchmarkStudyEndToEnd"] >> out
        printf "  \"speedup_vs_baseline\": %.2f,\n", baseline / ns["BenchmarkStudyEndToEnd"] >> out
        # 4 workers vs 1 on the study workload, including two injected
        # worker deaths, a lease takeover, and the streaming merge. On a
        # single-core runner this sits near 1.0 (the workers only share the
        # one core); on an N-core runner it approaches min(N, 4).
        printf "  \"speedup_vs_single_shard\": %.2f,\n", ns["BenchmarkStudySingleShard"] / ns["BenchmarkStudyShardedEndToEnd"] >> out
        # Three timeline points against three independent studies: the
        # longitudinal runner builds the world once and re-measures, so a
        # value below 3.0 prices the shared-world and crypto-plane reuse.
        printf "  \"longitudinal_vs_three_studies\": %.2f\n", ns["BenchmarkLongitudinalStudy"] / (3 * ns["BenchmarkStudyEndToEnd"]) >> out
        printf "}\n" >> out
    }
' "$raw"

echo "==> wrote $OUT"
cat "$OUT"

./scripts/bench_compare.sh "$OUT"
