#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's .bench_build directory and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, temp files, telemetry
# counters, the binary) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
go -C "$root/benchmark" build -o "$build/ngbenchmark" .
cd "$root"
exec "$build/ngbenchmark" "$@"
