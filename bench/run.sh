#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload reality-hier --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and every temporary file the toolchain
# writes stay under $CARGO_TARGET_DIR (default .bench_build) in the
# current directory; the build needs no network.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"

(cd bench && go build -o "$out/freshbench" .)
exec "$out/freshbench" "$@"
