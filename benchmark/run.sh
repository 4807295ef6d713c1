#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds ./benchmark from the checkout's
# source and runs it with the driver's arguments. Go's build cache and
# temporary files are kept under .bench_build in the checkout, so the run
# reads and writes nothing outside it. By hand, `go run ./benchmark` does
# the same with the caches in their usual places.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: $root holds no go.mod: run it from a checkout of the repository" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -o "$build/offt-benchmark" ./benchmark
exec "$build/offt-benchmark" "$@"
