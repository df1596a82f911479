#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
# Run from the repository root. The build cache and the binary live in
# .bench_build/ (CARGO_TARGET_DIR when set), so nothing is written outside
# the checkout and nothing is fetched: the module has no dependencies
# beyond the repository itself and the Go standard library.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
XDG_CONFIG_HOME="$out/config" go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" --refs perfbench/testdata/references.tsv "$@"
