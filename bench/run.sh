#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it.
# Everything the build and the run write (Go build cache, temp files, catalog
# snapshots, WALs, result and span files) stays under that one directory.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" # the go command keeps its settings and counters there
go -C "$root/bench" build -o "$build/valentine-bench" .
exec "$build/valentine-bench" -root "$root" "$@"
