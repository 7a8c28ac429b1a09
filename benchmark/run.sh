#!/usr/bin/env bash
# run.sh — what BENCHMARK.json's command runs: build the benchmark from
# source into .bench_build/ at the root of the checkout, then run it with
# the arguments given.
#
# Everything the Go toolchain writes (build cache, temporary files, its
# usage counters under the user configuration directory, the binary) stays
# under .bench_build/, so the benchmark reads and writes only inside its
# checkout. The build is a no-op after the first run. In a
# directory without the repository's go.mod next to benchmark/ the build
# fails and so does this script, before anything is measured.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$build/diffkv-benchmark" .
exec "$build/diffkv-benchmark" -out "$here/out" "$@"
