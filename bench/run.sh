#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source and
# runs it with the arguments given, from the root of a checkout.
#
# The Go build cache, temporary files and tool configuration are kept under
# .bench_build/ so that a run reads and writes nothing outside the checkout;
# the first run in a fresh checkout therefore compiles the standard library
# as well (a minute or so), later runs reuse the cache.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of the datanet module (go.mod not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off # the module has no dependencies: never go to the network

go build -o "$build/datanet-bench" ./bench
exec "$build/datanet-bench" "$@"
