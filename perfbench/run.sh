#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, the temporary image stores and the CPU
# profiles all live under .bench_build in the repository root.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
