#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory, which
# must be the repository root, and runs it with the given arguments.
# Everything the build writes stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-buildvcs=false
export GOCACHE="$out/cache" GOMODCACHE="$out/mod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
