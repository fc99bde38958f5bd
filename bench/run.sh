#!/usr/bin/env bash
# Builds ftbench from source and runs it with the given arguments. Run it
# from the repository root:
#
#   bash bench/run.sh --workload fig5-steady --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the Go build cache, temporary files, the binary and trace files.
# Without the repository's sources beside bench/ the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

bin="$out/ftbench"
go -C bench build -o "$bin.$$" ./ftbench
mv -f "$bin.$$" "$bin"
exec "$bin" -workdir "$out" "$@"
