#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload certify-100k --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary stay under .bench_build in the current directory; the
# benchmark's own state directories and traces go to .bench_build/perfbench.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"
(cd "$(dirname "$0")" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
