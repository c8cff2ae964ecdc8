#!/usr/bin/env bash
# Builds the benchmark command from source and runs it with the given flags.
# Run from the repository root: bash stbench/run.sh -workload serve-hot -seed 1 -seconds 15 -trace 0
# Build outputs, the Go build cache, its temporary files and run scratch files
# stay in .bench_build.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
  GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd "$root/stbench" && go build -o "$build/stbench" .)
exec "$build/stbench" "$@"
