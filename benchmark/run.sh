#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. The benchmark is
# a Go module of its own (benchmark/go.mod) beside the module it measures;
# everything the build writes — the binary, the go build cache — goes under
# .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
