#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload tester-mixed --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every build artifact and cache lands
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout, and
# the Go toolchain is kept offline.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache \
	XDG_CONFIG_HOME=$out/config GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off
# Build under a private name and rename, so concurrent runs never exec a
# half-written binary.
(cd "$root/perfbench" && go build -o "$out/perfbench-bin.$$" .)
mv -f "$out/perfbench-bin.$$" "$out/perfbench-bin"
export PERFBENCH_OUT=$out
exec "$out/perfbench-bin" "$@"
