#!/usr/bin/env bash
# Builds the benchmark from source inside the current checkout and runs it.
#
#   bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run produce stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the span
# files of traced runs.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
