#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it. Run from
# the repository root:
#
#   bash e2ebench/run.sh --workload rm3d-paper --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# working directory: the binary, the Go build cache and temporary files,
# and the benchmark's scratch files and span dumps. A failed build exits
# non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
(
	cd e2ebench
	GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" go build -o "$out/e2ebench" .
)
exec "$out/e2ebench" "$@"
