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
#   5. go test -shuffle=on ./..., then vet and test the clusterbench
#      module, which go build ./... at the root skips: an exported-API
#      change in internal/robust must not break the benchmark harness
#   6. go test -race on the concurrency-heavy packages (the mux
#      transport, batched blockstore, pipelined client paths, and the
#      shared-graph ltcode layer included)
#   7. the mux data-path tests under -race, ten times over: many
#      concurrent GET and PUTSTREAM streams on one connection checked
#      byte for byte, so a reused read buffer reaching a consumer shows
#      — and the speculative-access tests under -race, ten times over:
#      the claim, probe, retry and degraded-commit paths of a write and
#      the claim, probe and need-raising paths of a read, whose workers
#      share one engine's state
#   8. chaos suite under -race: real client/server pairs through
#      fault-injection scenarios (stalls, resets, corruption,
#      degraded writes, repair promotion) and the self-healing
#      control plane (kill -> evict -> repair -> rejoin)
#   9. robust stress: internal/robust 20 times at GOMAXPROCS 1, 2
#      and 8, so a placement- or timing-dependent test fails here
#      (about 2 minutes), then every Fuzz* target for 10s each
#      (scripts/fuzz.sh)
#  10. bench smoke: every benchmark once (client overhead + headline
#      reproduction metrics + the client-shape LT encode bandwidth;
#      see scripts/bench_baseline.sh for the committed BENCH_11.json
#      baseline)
#  11. benchdiff: regenerate the baseline into /tmp and diff it
#      against the committed BENCH_11.json with cmd/benchdiff
#      (per-metric tolerances, non-zero exit on regression)
#  12. the data path's size: non-test lines in internal/transport and
#      internal/robust, non-test lines in internal/blockstore, the
#      settable fields of the exported option structs (and, apart,
#      replica.Config's) and the flags of robustored and robustore
#      (scripts/loc.sh), and non-test lines in
#      internal/metadata, so code moved out of the data path into the
#      metadata service shows
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

echo "==> clusterbench module: vet and test"
go -C clusterbench vet .
go -C clusterbench test .

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

echo "==> speculative access under -race, 10 runs (write and read claims, probes, retries, degraded commits)"
go test -race -count=10 -run 'Write|Spread|Degraded|Speculat|Read' ./internal/robust

echo "==> chaos suite under -race"
go test -race -count=1 -timeout 10m -run 'TestChaos' \
    ./internal/robust/ \
    ./internal/metadata/replica/

echo "==> robust stress (20 runs at GOMAXPROCS 1, 2 and 8)"
go test -count=20 -cpu 1,2,8 -timeout 20m ./internal/robust

echo "==> fuzz every target (10s each)"
./scripts/fuzz.sh 10s

echo "==> bench smoke (client overhead + headline metrics + LT encode, 1 iteration)"
go test -bench . -benchtime 1x -run '^$' ./internal/robust/
go test -bench 'BenchmarkFig53DecodeBandwidth|BenchmarkFig66ReadVsDisks|BenchmarkHeadline' \
    -benchtime 1x -run '^$' .
go test -bench 'BenchmarkEncodeSpike3K32Block256K' -benchtime 1x -run '^$' ./internal/ltcode/

echo "==> benchdiff against committed BENCH_11.json"
./scripts/bench_baseline.sh /tmp/BENCH_11.fresh.json >/dev/null
# Local machines vary from the committed baseline's reference machine,
# so tolerances are scaled up; metric-set drift is still exact.
go run ./cmd/benchdiff -baseline BENCH_11.json -fresh /tmp/BENCH_11.fresh.json -scale 4

./scripts/loc.sh | sed 's/^/==> /'
meta_files=$(ls internal/metadata/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086 # one path per word is intended
echo "==> non-test lines in internal/metadata: $(cat $meta_files | wc -l | tr -d ' ')"

echo "==> all checks passed"
