#!/usr/bin/env bash
# Builds the pictdb benchmark from the source tree it sits in and runs
# it with the given arguments, e.g.
#
#   bash pictbench/run.sh --workload paper-static --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file it writes (Go build cache,
# binary, database files, trace spans) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local

(cd "$root/pictbench" && go build -o "$build/pictbench" .) >&2
exec "$build/pictbench" --work "$build/work" --traces "$build/traces" "$@"
