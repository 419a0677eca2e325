#!/usr/bin/env bash
# check.sh — the full local hygiene gate, identical to CI.
#
# Usage: ./scripts/check.sh
#
# Runs, in order:
#   1. go build ./...
#   2. gofmt -l (fails on any unformatted file)
#   3. go vet ./...
#   4. robustore-lint -tests -json ./...  (all eight project
#      analyzers — determinism, lock copies, goroutine hygiene, float
#      equality, ctx cancellation, pool leases, error wrapping, metric
#      hygiene — over library AND _test.go files, findings written to
#      a JSON artifact; plus explicit passes over internal/obs and
#      internal/faultinject, the layers every concurrent path calls
#      into)
#   5. go test -shuffle=on ./...
#   6. go test -race on the concurrency-heavy packages (the batch
#      transport, batched blockstore, pipelined client paths, and the
#      shared-graph ltcode layer included)
#   7. the mux data-path tests under -race, ten times over: many
#      concurrent GET and PUTSTREAM streams on one connection checked
#      byte for byte, so a reused read buffer reaching a consumer shows
#   8. chaos suite under -race: real client/server pairs through
#      fault-injection scenarios (stalls, resets, corruption,
#      degraded writes, repair promotion) and the self-healing
#      control plane (kill -> evict -> repair -> rejoin)
#   9. bench smoke: every benchmark once (client overhead + headline
#      reproduction metrics; see scripts/bench_baseline.sh for the
#      committed BENCH_10.json baseline)
#  10. benchdiff: regenerate the baseline into /tmp and diff it
#      against the committed BENCH_10.json with cmd/benchdiff
#      (per-metric tolerances, non-zero exit on regression)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> robustore-lint -tests -json ./... (artifact: lint-findings.json)"
if ! go run ./cmd/robustore-lint -tests -json ./... > lint-findings.json; then
    cat lint-findings.json >&2
    exit 1
fi

echo "==> robustore-lint ./internal/obs/ ./internal/faultinject/ (explicit)"
go run ./cmd/robustore-lint ./internal/obs/ ./internal/faultinject/

echo "==> go test ./..."
go test -shuffle=on ./...

echo "==> go test -race (concurrency-heavy packages)"
go test -race -count=1 -timeout 10m \
    ./internal/robust/ \
    ./internal/transport/ \
    ./internal/faultinject/ \
    ./internal/accessctl/ \
    ./internal/admission/ \
    ./internal/blockstore/ \
    ./internal/cluster/ \
    ./internal/health/ \
    ./internal/lint/ \
    ./internal/ltcode/ \
    ./internal/metadata/ \
    ./internal/metadata/replica/ \
    ./internal/obs/ \
    ./internal/placement/

echo "==> mux data path under -race, 10 runs (reused read buffers never reach a consumer)"
go test -race -count=10 -run 'Mux|PutStream|GetStream' ./internal/transport

echo "==> chaos suite under -race"
go test -race -count=1 -timeout 10m -run 'TestChaos' \
    ./internal/robust/ \
    ./internal/metadata/replica/

echo "==> bench smoke (client overhead + headline metrics, 1 iteration)"
go test -bench . -benchtime 1x -run '^$' ./internal/robust/
go test -bench 'BenchmarkFig53DecodeBandwidth|BenchmarkFig66ReadVsDisks|BenchmarkHeadline' \
    -benchtime 1x -run '^$' .

echo "==> benchdiff against committed BENCH_10.json"
./scripts/bench_baseline.sh /tmp/BENCH_10.fresh.json >/dev/null
# Local machines vary from the committed baseline's reference machine,
# so tolerances are scaled up; metric-set drift is still exact.
go run ./cmd/benchdiff -baseline BENCH_10.json -fresh /tmp/BENCH_10.fresh.json -scale 4

echo "==> all checks passed"
