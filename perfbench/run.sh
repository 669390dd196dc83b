#!/usr/bin/env bash
# Entry point of the repository benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload leafspine-tcp --seed 1 --seconds 20 --trace 0
#
# Builds the benchmark program (perfbench/*.go) and hands it the
# arguments; the program builds cmd/tltsim from the checkout. Every Go cache, temp file
# and config write stays under .bench_build. See perfbench/README.md.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
export PPROF_TMPDIR="$out/tmp"

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
