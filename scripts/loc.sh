#!/usr/bin/env bash
# loc.sh — print the non-test Go line count of internal/transport plus
# internal/robust, the size of the data path that ROADMAP.md tracks.
#
# Usage: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(ls internal/transport/*.go internal/robust/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086 # one path per word is intended
cat $files | wc -l | tr -d ' '
