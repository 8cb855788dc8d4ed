#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (git-ignored) and runs
# it with the given arguments from the checkout root. Everything the build
# and the run write — Go's build cache, its temp files, checkpoint shards,
# trace files — stays inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

# bench/ is a module of its own that replaces the repository's module with
# "../": without the repository around it there is nothing to build, and
# the script stops here with go's exit code.
go build -C bench -o "$build/amrbench" .

exec "$build/amrbench" "$@"
