#!/usr/bin/env bash
# run.sh — build the loopback-cluster benchmark from source and run it.
#
# Usage, from the repository root:
#
#   bash clusterbench/run.sh --workload hetero-read --seed 1 --seconds 12 --trace 0
#
# The Go build cache, temporary build files, the binary and the span
# dumps of traced runs all go under .bench_build/ in the current
# directory; nothing is written elsewhere. All arguments are passed to
# the benchmark binary (see README.md for the flags).
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

go -C "$here" build -o "$out/clusterbench" .
exec "$out/clusterbench" --out "$out" "$@"
