#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, span files) stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOENV=off
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench/perfbench" .
exec "$build/perfbench/perfbench" "$@"
