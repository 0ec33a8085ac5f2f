#!/usr/bin/env bash
# Builds the end-to-end benchmark and snsserve from the source tree, then
# runs the benchmark with the given flags. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload taxi-paper --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and per-run data directories all live
# under .bench_build/ in the current directory, so nothing is written
# outside the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/snsserve ] || [ ! -d e2ebench ]; then
	echo "e2ebench: run from the root of a full source checkout" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd e2ebench && go build -o "$out/bin/e2ebench" .)
go build -o "$out/bin/snsserve" ./cmd/snsserve

exec "$out/bin/e2ebench" -snsserve "$out/bin/snsserve" -work "$out" "$@"
