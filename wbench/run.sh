#!/usr/bin/env bash
# Builds the wbench load generator from the checkout it is run in and
# executes it with the given arguments:
#
#   bash wbench/run.sh --workload scene --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache and the binary live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and
# the build never reaches the network (GOPROXY=off).
set -euo pipefail

if [[ ! -f go.mod || ! -f wbench/go.mod ]]; then
	echo "wbench: run from the repository root; go.mod and wbench/go.mod are required" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export WBENCH_OUT="$out"

(cd wbench && go build -o "$out/wbench" .)
exec "$out/wbench" "$@"
