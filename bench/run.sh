#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload sim-db-ebcp --seed 1 --seconds 10 --trace 0
#
# The build, the Go build cache and everything else the toolchain writes
# stay under .bench_build at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
(cd "$root/bench" && go build -o "$build/ebcpbench" .)
exec "$build/ebcpbench" "$@"
