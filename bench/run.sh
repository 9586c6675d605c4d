#!/usr/bin/env bash
# Entry point of the benchmark driver (BENCHMARK.json "command"): build the
# harness from source into .bench_build/ inside the checkout and run it with
# the driver's arguments (--workload --seed --seconds --trace). Everything the
# Go toolchain writes — build cache and temporary files included — stays
# inside the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
  echo "bench/run.sh: no go.mod beside bench/: the harness builds only inside a full checkout" >&2
  exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$build/config"

go build -o "$build/dta-bench" ./bench
exec "$build/dta-bench" "$@"
