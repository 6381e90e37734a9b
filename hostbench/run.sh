#!/usr/bin/env bash
# Builds hostbench from source and runs it with the given arguments.
# Run from the root of the repository:
#
#   bash hostbench/run.sh --workload drain --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, module cache, temporary
# work files, Go's own configuration and telemetry) stays under
# .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTMPDIR="$out/go-tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/bin/hostbench" .)
exec "$out/bin/hostbench" "$@"
