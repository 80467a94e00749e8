#!/usr/bin/env bash
# Builds the FlowTime benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload deadline-dense --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
