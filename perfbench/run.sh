#!/usr/bin/env bash
# Builds the benchmark harness and the dpserver binary from this checkout's
# sources into .bench_build/, then runs the harness with the given arguments:
#
#   bash perfbench/run.sh --workload mech-inline --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Everything it writes stays under
# .bench_build/: the Go build cache too, and the network is never used.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" &&
	go build -o "$out/perfbench" . &&
	go build -o "$out/dpserver" github.com/freegap/freegap/cmd/dpserver) >&2
exec "$out/perfbench" "$@"
