#!/usr/bin/env bash
# bench_baseline.sh — regenerate the repo's benchmark baseline.
#
# Usage: ./scripts/bench_baseline.sh [output.json]   (default BENCH_11.json)
#
# Runs the headline reproduction benchmarks once (-benchtime 1x) and
# writes their b.ReportMetric values as a JSON baseline: LT decode
# bandwidth, 64-disk RobuSTore read bandwidth, and the speedup over
# RAID-0 — the numbers future PRs diff against to claim a perf
# trajectory. Also runs the chaos stalled-read benchmark (several
# iterations: its metrics are latency tails under injected stalls) to
# record read latency under memoryless and correlated stragglers, the
# daemon fault-free benchmark to record read/write latency with and
# without the self-healing control plane enabled, and the client
# read/write benchmarks under -benchmem to record hot-path
# allocations per op (DESIGN.md §10 budgets them), and the streaming
# write benchmark to record pipelined write latency and first-commit
# (write first-byte) latency (DESIGN.md §15). Absolute
# values are machine-dependent; the committed baseline records the
# metric *set* and one reference machine's numbers, and CI's
# bench-smoke job re-runs this script and diffs the result against
# the committed baseline with cmd/benchdiff (per-metric tolerances,
# non-zero exit on regression).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_11.json}"
bench='BenchmarkFig53DecodeBandwidth|BenchmarkFig66ReadVsDisks|BenchmarkHeadline'
chaos_bench='BenchmarkChaosStalledRead'
daemon_bench='BenchmarkDaemonFaultFree'
stream_bench='BenchmarkClientWriteStream16MB'
alloc_bench='BenchmarkClientWriteSteady16MB$|BenchmarkClientWrite16MB$|BenchmarkClientRead16MB$'

raw=$(go test -bench "$bench" -benchtime 1x -run '^$' .)
echo "$raw" >&2
raw_chaos=$(go test -bench "$chaos_bench" -benchtime 10x -run '^$' ./internal/robust/)
echo "$raw_chaos" >&2
raw_daemon=$(go test -bench "$daemon_bench" -benchtime 10x -run '^$' ./internal/robust/)
echo "$raw_daemon" >&2
raw_stream=$(go test -bench "$stream_bench" -benchtime 10x -run '^$' ./internal/robust/)
echo "$raw_stream" >&2
raw_alloc=$(go test -bench "$alloc_bench" -benchmem -benchtime 10x -run '^$' ./internal/robust/)
echo "$raw_alloc" >&2
raw="$raw
$raw_chaos
$raw_daemon
$raw_stream"

# Benchmark output lines look like:
#   BenchmarkFoo-8  1  123 ns/op  45.6 some-metric  7.8 other-metric
# i.e. value/unit pairs from field 3 on. Keep only the custom
# ReportMetric pairs (units without a '/'), emitted as "unit value"
# lines, sorted for a stable diff.
pairs=$(echo "$raw" | awk '/^Benchmark/ {
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        if (unit !~ /\//) print unit, $i
    }
}' | sort)

# The -benchmem run reports allocs/op per benchmark; rekey them as
# <benchmark>_allocs_per_op so they survive the '/'-free filter above
# and diff like any other baseline metric. The steady-state write
# number is the zero-allocation-hot-path headline (DESIGN.md §10).
alloc_pairs=$(echo "$raw_alloc" | awk '/^BenchmarkClient/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    sub(/^BenchmarkClient/, "", name)
    for (i = 3; i < NF; i += 1) {
        if ($(i + 1) == "allocs/op") print tolower(name) "_allocs_per_op", $i
    }
}' | sort)

pairs=$(printf '%s\n%s\n' "$pairs" "$alloc_pairs" | sed '/^$/d' | sort)

nmetrics=$(printf '%s\n' "$pairs" | sed '/^$/d' | wc -l)
if [ "$nmetrics" -lt 3 ]; then
    echo "bench_baseline: expected >= 3 headline metrics, parsed $nmetrics:" >&2
    printf '%s\n' "$pairs" >&2
    exit 1
fi

{
    printf '{\n'
    printf '  "schema": 1,\n'
    printf '  "bench_filter": "%s",\n' "$bench|$chaos_bench|$daemon_bench|$stream_bench|$alloc_bench"
    printf '  "benchtime": "1x",\n'
    printf '  "metrics": {\n'
    i=0
    while read -r unit value; do
        i=$((i + 1))
        sep=','
        [ "$i" -eq "$nmetrics" ] && sep=''
        printf '    "%s": %s%s\n' "$unit" "$value" "$sep"
    done <<EOF
$pairs
EOF
    printf '  }\n'
    printf '}\n'
} > "$out"

echo "wrote $out"
