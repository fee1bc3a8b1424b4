#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash vspbench/run.sh --workload batch-solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache, temporary files and
# the binary stay under .bench_build/ so nothing is written outside the
# checkout, and no module is ever downloaded.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C vspbench build -o "$out/vspbench" .
exec "$out/vspbench" "$@"
