#!/usr/bin/env bash
# BENCHMARK.json's command: build bench/ and run it with the driver's
# arguments. The build cache, temporary files and the binary all live in
# .bench_build, so nothing is read or written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
