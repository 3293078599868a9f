#!/usr/bin/env bash
# Builds the yieldbench binary from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   bash yieldbench/run.sh --workload yield-ac --seed 1 --seconds 35 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/ so nothing is
# written outside the checkout. Without the repository's own sources next to
# this directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/yieldbench" && go build -o "$out/yieldbench" .)
exec "$out/yieldbench" "$@"
