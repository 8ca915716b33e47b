#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload throughput-mix --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, the
# binary) stays under .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
