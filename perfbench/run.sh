#!/usr/bin/env bash
# Builds the repository benchmark from the sources of the checkout it is
# run in and executes it. Run from the repository root:
#
#   bash perfbench/run.sh --workload ustm --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the benchmark binary, the determinism
# records and the traced run's spans.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
