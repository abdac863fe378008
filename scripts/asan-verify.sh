#!/bin/sh
# Builds the out-of-core suites under AddressSanitizer + UBSan and runs
# them: the segment store codec (varint/zigzag decode over torn and
# corrupted inputs is exactly where an out-of-bounds read would hide),
# the spill/evict path (LRU cache frees decoded windows while shared_ptr
# handles may still be live), the windowed out-of-core miner, the
# recovery/salvage machinery it reuses, the telemetry sampler's
# /proc parsing + ring/serialization paths, and the streaming server's
# wire/journal decoders (length-prefixed frames and crc-framed journal
# records parsed from hostile or torn byte streams), the open-addressing
# table of distinct activity sets the mining pipeline fills, and the
# per-algorithm miner suites, since the pipeline (src/mine/pipeline.cc)
# that serves the out-of-core miner also serves every in-memory mine, and
# the text front ends: the format fuzz sweeps (garbage into every parser),
# the ingestion equivalence suite, and the streaming and batch reader
# tests, since the batch parser and the streaming scan share one pointer
# line scanner (src/log/text_line.h) and one pairing routine, and the bit
# layer: the packed BitMatrix rows and their word loops, plus every suite
# that indexes them by hand (transitive reduction, reachability, the
# rank-space steps 5-6 kernel, relations, conformance), the one extent
# pass behind the log relations and the noise estimate (its property test
# against the legacy passes, and the epsilon tests), and the open-
# addressing name index every text front end interns through, and the
# varint/fixed32 primitives every binary decoder reads through, and the
# sparse per-execution outputs list: its instance indexes are walked by
# every format's encoder and decoder and by every path that reorders,
# drops or copies instances (the outputs property test, plus the execution,
# event log, XES, engine and condition miner suites). Run whenever
# src/util/coding, src/log/segment_store, src/log/reader, src/log/text_line,
# src/log/streaming_reader, src/log/event_assembly, src/log/name_index,
# src/log/execution, src/log/xes, src/log/transform, src/workflow/engine,
# src/synth/noise_injector, src/mine/condition_miner,
# src/mine/pipeline, src/mine/ooc_miner, src/mine/relations,
# src/mine/noise, src/obs/telemetry, src/serve/,
# util/id_set_table, util/bit_matrix, or the binary-log salvage path
# changes.
#
# Usage: scripts/asan-verify.sh [build-dir]   (default: build-asan)

set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROCMINE_SANITIZE=address \
  -DPROCMINE_BUILD_BENCHMARKS=OFF \
  -DPROCMINE_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j \
  --target segment_store_test binary_log_test recovery_test \
           format_fuzz_test budget_test telemetry_test serve_test \
           id_set_table_test miner_test general_dag_miner_test \
           cyclic_miner_test special_dag_miner_test \
           ingest_equivalence_test streaming_reader_test reader_writer_test \
           name_index_test coding_test \
           bit_matrix_test transitive_reduction_test graph_algorithms_test \
           reduce_activity_sets_test relations_test conformance_test \
           relations_property_test noise_estimate_test \
           output_property_test execution_test event_log_test xes_test \
           engine_test condition_miner_test

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'SegmentStore|SegmentCodec|OocIdentity|BinaryLog|RecoveryMatrix|BinarySalvage|StreamingRecovery|RecoveryPolicy|Format(Garbage|RoundTrip|Sizes)|RunBudget|Telemetry|Serve|IdSetTable|MinerTest|MinerPropertyTest|IngestEquivalence|StreamingReader|NameIndex|LogReader|LogWriter|BitsKernel|BitMatrix|TransitiveReduction|Reachability|ReduceActivitySets|Relations|EstimateNoiseRate|SuggestNoiseThreshold|Conformance|Varint|Zigzag|Fixed32|LengthPrefixed|CodingTest|OutputProperty|Execution(Death)?Test|EventLogTest|XesTest|EngineTest|ConditionMinerTest'
