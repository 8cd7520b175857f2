#!/usr/bin/env sh
# scripts/bench.sh — run the tracked micro-benchmarks and emit a
# machine-readable snapshot (BENCH_<PR>.json) so the performance
# trajectory is comparable across PRs.
#
# Usage:
#   scripts/bench.sh [output.json] [benchtime]
#
# Defaults: output BENCH_9.json in the repo root, -benchtime 0.5s for
# the micro-benchmarks. Time-based benchtime matters for the ns-scale
# rows: at a fixed 50x a single scheduler preemption doubles the
# number, and snapshot diffs (scripts/bench_compare.sh) drown in noise.
# The whole-pipeline benches below pin small fixed counts instead to
# bound runtime.
set -eu

cd "$(dirname "$0")/.."
OUT="${1:-BENCH_9.json}"
BENCHTIME="${2:-0.5s}"

# The snapshot records GOMAXPROCS so speedup numbers are interpretable:
# a 1.0x "speedup" on a 1-core box is expected, not a regression. On a
# single-core box the parallel rows measure nothing at all, so the
# snapshot says so machine-readably ("parallel_valid": false) instead of
# publishing a 1.0x speedup that reads like an engine regression.
MAXPROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
if [ "$MAXPROCS" -ge 2 ]; then
    PARALLEL_VALID=true
else
    PARALLEL_VALID=false
    cat >&2 <<'EOF'
================================================================
WARNING: single-core box — parallel benchmark rows are INVALID.
Speedup/workers/limiter-wait numbers below measure scheduling on
one core, not the engine's scaling. The snapshot will carry
"parallel_valid": false; do not compare its parallel rows.
================================================================
EOF
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# The tracked set: the mapping/routing hot-path benches, the fault
# subsystem's survivability sweep, the annealing topology search
# (whole-run evals/sec and single candidate-evaluation latency), plus
# the whole-pipeline selection sweep the acceptance criteria quote.
go test -run '^$' -bench 'BenchmarkMap$|BenchmarkRouteViaMapper$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/mapping | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkRoute$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/route | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkFaultSweep$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/fault | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkSearch$' \
    -benchmem -benchtime 5x ./internal/search | tee -a "$RAW"
go test -run '^$' -bench 'BenchmarkSearchEval$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/search | tee -a "$RAW"
# Job-store durability: submit throughput (fsync'd journal appends) and
# journal replay rate on reopen.
go test -run '^$' -bench 'BenchmarkSubmitReplay$' \
    -benchmem -benchtime "$BENCHTIME" ./internal/jobs | tee -a "$RAW"
# The selection sweep runs at 1 and 4 procs (1 and 2 on 2- and 3-core
# boxes), so the snapshot captures the scaling claim, not just one point.
if [ "$MAXPROCS" -ge 4 ]; then
    SELECT_CPU="-cpu 1,4"
elif [ "$MAXPROCS" -ge 2 ]; then
    SELECT_CPU="-cpu 1,2"
else
    SELECT_CPU=""
fi
# shellcheck disable=SC2086  # SELECT_CPU is intentionally word-split
go test -run '^$' -bench 'BenchmarkSelect$' \
    -benchmem -benchtime 5x $SELECT_CPU . | tee -a "$RAW"
# Observability overhead: the same cold selection sweep untraced vs
# traced. The parallel Select rows above already carry the limiter-wait
# and span-duration summary fields (blocked-acquires, limiter-wait-ms,
# evaluate-span-ms) reported by the bench itself.
go test -run '^$' -bench 'BenchmarkSelectOverhead$' \
    -benchmem -benchtime 5x . | tee -a "$RAW"

# Fold `pkg:` headers and `BenchmarkX-N iter value unit [value unit]...`
# rows into JSON. The `-N` name suffix is Go's GOMAXPROCS marker (absent
# at 1): it becomes the row's "gomaxprocs" field instead of polluting
# the name.
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v hostprocs="$MAXPROCS" -v parvalid="$PARALLEL_VALID" '
BEGIN { print "{"; printf "  \"generated\": \"%s\",\n", date; print "  \"results\": [" }
/^pkg: / { pkg = $2 }
/^cpu: / { sub(/^cpu: /, ""); if (cpu == "") cpu = $0 }
/^Benchmark/ {
    name = $1; procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (n++) printf ",\n"
    printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"gomaxprocs\": %s, \"iterations\": %s", pkg, name, procs, $2
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/[^A-Za-z0-9%\/-]/, "_", unit)
        printf ", \"%s\": %s", unit, $i
    }
    printf "}"
}
END { print "\n  ],"; printf "  \"cpu\": \"%s\",\n  \"gomaxprocs\": %s,\n  \"parallel_valid\": %s\n}\n", cpu, hostprocs, parvalid }
' "$RAW" >"$OUT"

echo "wrote $OUT"
