#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build and the run leave behind (binary, Go build cache,
# Go's own bookkeeping, results, traces) goes under .bench_build/, so
# nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/sqlpp-benchmark" .)
cd "$root"
exec "$build/sqlpp-benchmark" -outdir "$build/out" "$@"
