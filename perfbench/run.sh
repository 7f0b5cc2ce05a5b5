#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload shared-tpch --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output and the Go build cache
# stay under .bench_build/ in that root; nothing is fetched.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
