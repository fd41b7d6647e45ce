#!/usr/bin/env bash
# Builds samabench from source in the checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash samabench/run.sh --workload warm-10k --seed 1 --seconds 15 --trace 0
#
# Every build product and run file stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/samabench" && go build -o "$build/samabench" .) >&2
cd "$root"
exec "$build/samabench" "$@"
