#!/bin/sh
# Quick-mode perf smoke: builds the gated benches in an existing (or fresh)
# Release tree and runs their ctest gates.
#
#  * BenchIngestQuick — fails if the zero-copy text path drops below 3x the
#    legacy reader's events/sec. The ingest equivalence suite runs first, so
#    a speedup measured on a wrong parse never counts.
#  * BenchKernelsQuick — fails if the BitMatrix closure/reduce paths fall
#    below the seed implementations they replaced.
#    The bit_matrix property suite runs first, for the same reason.
#
# Usage: scripts/bench-smoke.sh [build-dir]   (default: build)

set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j --target bench_ingest ingest_equivalence_test \
  bench_kernels bit_matrix_test

ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'IngestEquivalence'
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'BenchIngestQuick'
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'BitsKernel|BitMatrix'
ctest --test-dir "$BUILD_DIR" --output-on-failure -R 'BenchKernelsQuick'
echo "perf smoke OK: see $BUILD_DIR/BENCH_ingest.json and $BUILD_DIR/BENCH_kernels.json"
