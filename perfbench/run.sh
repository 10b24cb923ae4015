#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it.
# Run from the repository root; every argument is passed to the harness:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and the span dumps all stay under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
