#!/usr/bin/env bash
# Builds the benchmark (the Go module in this directory) from source into
# .bench_build at the root of the checkout — binary, Go build cache and
# scratch space all live there — and runs it from the root with the
# arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
