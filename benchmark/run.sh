#!/usr/bin/env bash
# Builds the benchmark harness from source inside the checkout and runs
# it. BENCHMARK.json names this script as the command; run it from the
# repository root:
#
#   bash benchmark/run.sh --workload lib-prove-2p16 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the toolchain's temp files, the
# binary, the journals of the job workloads and the span files.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

# VCS stamping is off so that a checkout nested in somebody else's git
# repository still builds; the commit for the result header is asked of
# git directly and is "unknown" where there is no repository.
NOCAP_BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$NOCAP_BENCH_COMMIT" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then
	NOCAP_BENCH_COMMIT+=+modified
fi
export NOCAP_BENCH_COMMIT

go build -buildvcs=false -o "$out/nocap-benchmark" ./benchmark
exec "$out/nocap-benchmark" "$@"
