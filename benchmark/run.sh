#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# with the given arguments. Everything the Go toolchain and the benchmark
# write (build cache, temp files, WAL and snapshot directories) stays under
# that directory, so a run reads and writes only inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/tqbenchmark" .) >&2
exec "$out/tqbenchmark" "$@"
