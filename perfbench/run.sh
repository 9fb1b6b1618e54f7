#!/bin/sh
# Builds the benchmark and clientmapd from the sources of the checkout it
# is started in, then runs the benchmark with the given arguments. Run it
# from the root of the checkout:
#
#	sh perfbench/run.sh --workload campaign --seed 2021 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/clientmapd" ./cmd/clientmapd
exec "$out/perfbench" "$@"
