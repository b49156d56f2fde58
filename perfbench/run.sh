#!/usr/bin/env bash
# Builds irredd and the perfbench program from the checkout this is run in,
# then runs one benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-short --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/irredd" ./cmd/irredd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -irredd "$out/irredd" -root "$root" -out "$out" "$@"
