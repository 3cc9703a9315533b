#!/usr/bin/env bash
# BENCHMARK.json's command: build mmbench from source inside the
# checkout, then hand it the driver's arguments
# (--workload W --seed N --seconds S --trace 0|1).
#
# Everything go writes — build cache, temp files, the binary — stays
# under .bench_build/ in the current directory, and the benchmark's own
# work files under internal/bench/out/, so a run reads and writes only
# inside its checkout. The module needs nothing from the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/mmbench" ./cmd/mmbench
exec "$build/mmbench" run "$@"
