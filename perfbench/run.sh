#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it from the root of
# the checkout it lives in:
#
#   bash perfbench/run.sh --workload xfer-bulk --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and span files go to .bench_build/ at the
# checkout root, so nothing is read or written outside the checkout apart
# from the Go toolchain itself. The benchmark module replaces the `repro`
# module with the parent directory; outside a full checkout the build fails
# and so does this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
