#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the checkout's root:
#
#	bash perf/run.sh --workload fanin --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every other file the toolchain writes
# go to .bench_build at the root, so a run leaves nothing elsewhere.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C perf build -o "$out/altoperf" .
exec "$out/altoperf" "$@"
