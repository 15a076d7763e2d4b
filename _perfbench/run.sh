#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash _perfbench/run.sh --workload ops --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, telemetry) stays
# under .bench_build in the current directory. Without the repository's
# sources next to _perfbench the build fails and so does this script.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/_perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
