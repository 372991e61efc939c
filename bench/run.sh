#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# with a build cache inside the checkout, so a run reads and writes nothing
# outside it, and passes its arguments on. By hand, `go run ./bench` from
# the repository root does the same with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache"
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
