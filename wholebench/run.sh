#!/usr/bin/env bash
# Builds the whole-run benchmark from source and runs it. Run it from the
# repository root; everything it builds or writes stays under
# .bench_build/ there:
#
#   bash wholebench/run.sh --workload service-ops --seed 1 --seconds 15 --trace 0
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build/wholebench"
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout, use
# the installed toolchain only and never reach for a module proxy.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
mkdir -p "$HOME"

(cd "$src" && go build -o "$out/wholebench" .)
exec "$out/wholebench" "$@"
