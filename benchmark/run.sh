#!/usr/bin/env bash
# Entry point named by BENCHMARK.json, run from the checkout's root:
# builds the benchmark driver from source and runs it. Every file the Go
# toolchain writes (build cache, temp files, module cache, telemetry) is
# redirected under <checkout>/.bench_build, so a run reads and writes
# only inside its checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$root/benchmark" -o "$build/bin/benchmark" .
cd "$root"
exec "$build/bin/benchmark" "$@"
