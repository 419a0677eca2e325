#!/usr/bin/env bash
# loc.sh — print the size figures ROADMAP.md tracks for the data path:
# the non-test Go line count of internal/transport plus internal/robust,
# the same count for internal/blockstore, the number of settable fields
# (knobs) in the exported option structs a deployment configures it
# with, the settable fields of replica.Config on a line of their own,
# and the number of command-line flags of the server and client
# commands.
#
# Usage: ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(ls internal/transport/*.go internal/robust/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086 # one path per word is intended
echo "non-test lines in internal/transport + internal/robust: $(cat $files | wc -l | tr -d ' ')"
files=$(ls internal/blockstore/*.go | grep -v '_test\.go$')
# shellcheck disable=SC2086 # one path per word is intended
echo "non-test lines in internal/blockstore: $(cat $files | wc -l | tr -d ' ')"

# fields FILE STRUCT counts the field names declared in the body of
# "type STRUCT struct {": comment and blank lines skip, and a line
# declaring "A, B T" counts two.
fields() {
    awk -v t="$2" '
        $0 ~ "^type " t " struct \\{" { body = 1; next }
        body && /^}/ { exit }
        body {
            sub(/\/\/.*/, "")
            if (NF == 0) next
            n++
            for (i = 1; i < NF && $i ~ /,$/; i++) n++
        }
        END { print n + 0 }
    ' "$1"
}

total=0
detail=""
while read -r label file struct; do
    n=$(fields "$file" "$struct")
    total=$((total + n))
    detail="$detail${detail:+, }$label $n"
done <<'EOF'
robust.Options internal/robust/robust.go Options
robust.DaemonOptions internal/robust/daemon.go DaemonOptions
robust.QoS internal/robust/select.go QoS
transport.ClientOptions internal/transport/client.go ClientOptions
transport.ServerOptions internal/transport/server.go ServerOptions
metadata.RemoteOptions internal/metadata/remote.go RemoteOptions
EOF
echo "settable option fields: $total ($detail)"
# The metadata plane's consensus tuning, outside the tracked total.
echo "replica.Config settable fields (not in the total): $(fields internal/metadata/replica/node.go Config)"

# Each flag.T(...) declaration in a command's main.go is one flag.
flags() {
    grep -c 'flag\.\(Bool\|Duration\|Float64\|Int\|Int64\|String\|Uint\|Uint64\|Var\)(' "$1"
}
served=$(flags cmd/robustored/main.go)
client=$(flags cmd/robustore/main.go)
echo "command-line flags: $((served + client)) (robustored $served, robustore $client)"
