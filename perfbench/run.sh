#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it.
#
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload campaign-paper --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the Go
# command's telemetry counters and the binary) stays under .bench_build/ in
# the checkout. The build needs the repository's own Go module one
# directory up; without it the build fails and the script exits non-zero
# before printing any result.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
