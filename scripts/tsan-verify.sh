#!/bin/sh
# Builds the suite under ThreadSanitizer and runs the tests that exercise
# the concurrent machinery: the obs metrics/span recorders, the thread
# pool (including the work-stealing chunked mode), the
# parallel-determinism sweep (threads x chunk-size), the
# sharded parallel log parser (ingest equivalence), the run-report
# builder (provenance recording + thread-count-invariant report bytes),
# the robustness layer (recovery-mode sharded quarantine merges,
# failpoints, budgets), the drift monitor + model registry (whose
# outputs must be identical however ingestion was sharded), the
# out-of-core segment store + windowed miner (window fan-out at
# threads {2,8} over the spill/evict path), and the telemetry sampler
# (a background thread snapshotting the registry while counter writers
# race it), and the streaming server (concurrent submitters multiplexing
# sessions onto the pump + thread pool, plus the socket front end's
# connection threads racing a hostile client), and the rank-space steps
# 5-6 kernel (chunks OR kept edges into one shared BitMatrix with relaxed
# atomic_ref ORs). Run whenever the parallel pipeline, src/obs/, the
# ingestion layer, the segment store, util/bit_matrix, or src/serve/
# changes.
#
# Usage: scripts/tsan-verify.sh [build-dir]   (default: build-tsan)

set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROCMINE_SANITIZE=thread \
  -DPROCMINE_BUILD_BENCHMARKS=OFF \
  -DPROCMINE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target obs_metrics_test obs_trace_test thread_pool_test \
           parallel_determinism_test \
           ingest_equivalence_test mapped_file_test report_test \
           recovery_test failpoint_test budget_test \
           drift_test registry_test segment_store_test telemetry_test \
           serve_test reduce_activity_sets_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'Obs|ThreadPool|ParallelDeterminism|IngestEquivalence|MappedFile|RunReport|RecoveryMatrix|BinarySalvage|StreamingRecovery|RecoveryPolicy|Failpoint|RunBudget|MinerBudget|ReportBudget|DriftMonitor|SupportHighWatermark|Registry|SegmentStore|SegmentCodec|OocIdentity|Telemetry|Serve|ReduceActivitySets'
