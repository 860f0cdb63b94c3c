#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and runs
# it. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload seq-fig5a --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# and the result records go to .bench_out/, both inside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
