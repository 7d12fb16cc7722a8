#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-diff --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps telemetry
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
