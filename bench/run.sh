#!/bin/bash
# What BENCHMARK.json's command runs: build the benchmark from source and
# hand it the driver's arguments. The Go build cache, the temporary files
# and the binary all go under .bench_build in the checkout, so a run reads
# and writes nothing outside it; only the first build in a checkout is slow.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
cd "$root"
go build -o "$build/rpbench" ./bench
exec "$build/rpbench" "$@"
