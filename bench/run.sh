#!/usr/bin/env bash
# Builds the benchmark and the schedd daemon from the checkout that holds
# this script, then runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload sim_ctc --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, WAL
# directories, trace files) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go build -C bench -o "$out/bench" .
go build -o "$out/schedd" ./cmd/schedd
exec "$out/bench" -schedd "$out/schedd" -workdir "$out" "$@"
