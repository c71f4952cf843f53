#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload paper-cells --seed 7 --seconds 15 --trace 0
#
# Run it from the repository root: the binary, the Go build cache and the
# benchmark's temporary files all stay under .bench_build/ there.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$src" && go build -o "$build/aspeo-benchmark" .)
exec "$build/aspeo-benchmark" "$@"
