#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash ocbench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) and
# the serve workload's journal go under .bench_build/ at the root of
# the checkout. See ocbench/README.md for the workloads and metrics.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/ocbench" build -o "$build/ocbench" .
cd "$root"
exec "$build/ocbench" "$@"
