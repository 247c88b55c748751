#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the harness from the checkout it
# is run in and hands it the driver's arguments. The Go build cache and the
# binary stay inside the checkout (.bench_build/), so a run reads and writes
# nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache"
export GOFLAGS="-buildvcs=false"
go build -o .bench_build/hyperdom-bench ./bench
exec .bench_build/hyperdom-bench "$@"
