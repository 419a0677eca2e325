#!/usr/bin/env bash
# fuzz.sh — run every Fuzz* target in the module for a fixed time each.
#
# Usage: ./scripts/fuzz.sh [FUZZTIME]    (default 10s per target)
#
# go test -fuzz takes one package and one target per run, so the script
# finds the targets and runs them one at a time. A failing input is
# written under the package's testdata/fuzz/<target>/ and fails the
# run; commit it so the plain test run replays it from then on.
set -euo pipefail
cd "$(dirname "$0")/.."
fuzztime=${1:-10s}

grep -rl --include='*_test.go' --exclude-dir=clusterbench --exclude-dir=.bench_build \
    '^func Fuzz' . | sort | while read -r file; do
    pkg=./$(dirname "${file#./}")
    for target in $(grep -o '^func Fuzz[A-Za-z0-9_]*' "$file" | cut -d' ' -f2); do
        echo "==> $target in $pkg for $fuzztime"
        go test -run '^$' -fuzz "^$target\$" -fuzztime "$fuzztime" "$pkg"
    done
done
