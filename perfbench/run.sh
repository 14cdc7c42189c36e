#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-churn --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary and the cluster workload's WAL directories all live under
# .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
