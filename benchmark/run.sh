#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into the checkout and runs it with the arguments given.
#
#   bash benchmark/run.sh --workload mysql_oltp --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (the root of a checkout): the Go build cache, the go
# command's telemetry directory (it keeps it under the user's config
# directory; telemetry is switched off there), the binary, WAL directories
# and span dumps. The first build in a checkout compiles the standard
# library too; later ones are incremental.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gotmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
# With a fresh telemetry directory the go command forks a detached
# telemetry child that outlives it; mode "off" stops that, so no process
# of a run is left behind, whether or not the build succeeds.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/crane-benchmark" ./benchmark
exec "$out/crane-benchmark" "$@"
