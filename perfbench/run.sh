#!/usr/bin/env bash
# Builds the swap benchmark from the sources of the checkout it sits in and
# runs it. Every argument passes through:
#
#   bash perfbench/run.sh --workload cycle --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the Go environment all stay under
# .bench_build/ at the checkout root, so the run reads and writes nothing
# outside the checkout. The benchmark needs no module beyond the checkout,
# so module downloads are off. Without the objectswap sources one directory
# up the build fails and the script exits non-zero without printing a
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
