#!/usr/bin/env bash
# The benchmark's entry point, and the BENCHMARK.json command: build the
# benchmark module into the checkout's build directory, then run it with
# the arguments given. Everything is read and written inside the checkout.
#
#   bash benchmark/bench.sh --workload pair_miss --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# The module has no dependencies outside this repository; keep the Go tool
# from reaching for the network, and its caches, module path and telemetry
# files inside the checkout.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	go build -o "$build/caer-benchmark" .)
cd "$root"
exec "$build/caer-benchmark" "$@"
