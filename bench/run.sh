#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes stays inside the checkout, in
# .bench_build/: the Go build cache, the toolchain's own state and the
# binary.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
