#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the root of a checkout; everything the build and the run write
# (Go's build cache and temporary files, the binary, the span files) goes
# to .bench_build inside that checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
