#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload diimm_tcp --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary work
# directories, its own config) stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build/perfbench"
mkdir -p "$build/cache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd perfbench && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
