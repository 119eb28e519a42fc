#!/usr/bin/env bash
# Builds cmd/histwalkd and the hwbench harness from the checkout it is
# run in, then runs one benchmark pass against the freshly built daemon.
# Run it from the repository root, e.g.
#
#   bash hwbench/run.sh --workload walk-heavy --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache, the packed graph, the daemon's store
# directory and the span files all live under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail

root=$PWD
if [[ ! -f go.mod || ! -d cmd/histwalkd ]]; then
	echo "hwbench: run from the root of a histwalk checkout (no go.mod or cmd/histwalkd here)" >&2
	exit 2
fi
build=$root/.bench_build/hwbench
mkdir -p "$build"

# Keep the go command's caches and its telemetry counters (kept under
# the user config directory) inside the checkout, and never let it reach
# for a network, a newer toolchain or version-control metadata.
export GOCACHE=$root/.bench_build/gocache
export GOPATH=$root/.bench_build/gopath
export GOMODCACHE=$root/.bench_build/gopath/pkg/mod
export XDG_CONFIG_HOME=$root/.bench_build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS="-mod=mod -buildvcs=false"

go build -o "$build/histwalkd" ./cmd/histwalkd
(cd hwbench && go build -o "$build/hwbench" .)
exec "$build/hwbench" -daemon "$build/histwalkd" -work "$build" "$@"
