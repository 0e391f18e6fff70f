#!/usr/bin/env bash
# Builds the benchmark and runs it with the arguments given, from the root of
# the checkout. Everything the build leaves behind (Go's build cache, module
# cache, temporary files, the binary) goes under .bench_build/ in the
# checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/bench" -o "$build/citymesh-bench" .
cd "$root"
exec "$build/citymesh-bench" "$@"
