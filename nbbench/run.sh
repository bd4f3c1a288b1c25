#!/usr/bin/env bash
# Builds nbbench from source into .bench_build/ at the repository root and
# runs it with the given arguments, e.g.
#
#   bash nbbench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/ too, and
# the toolchain never goes to the network: the module has no dependencies
# beyond the repository itself.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/nbbench" && go build -o "$out/nbbench" .)
cd "$root"
exec "$out/nbbench" "$@"
