#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload expt-quick --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, sweep logs and traces all stay
# under .bench_build/perfbench in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
