#!/usr/bin/env bash
# Builds the harness from source into the checkout's .bench_build and runs it.
# The go build cache and temp directory live there too, so a run reads and
# writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/dtbenchmark" .
cd "$root"
exec "$build/dtbenchmark" "$@"
