#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# flags, from the root of the checkout. Every build artifact (the Go build
# cache included) stays under .bench_build in the checkout.
#
#   bash bench/run.sh --workload query-warm --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/bench" && go build -o "$out/moodbench-e2e" .)
cd "$root"
exec "$out/moodbench-e2e" "$@"
