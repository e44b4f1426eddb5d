#!/usr/bin/env bash
# Builds roughbench from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash roughbench/run.sh --workload fft-point --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ of
# the checkout: the Go build cache, temporary files and the binary.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/roughbench" && go build -o "$out/roughbench" .)
exec "$out/roughbench" "$@"
