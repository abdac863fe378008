// Regression: the sharded mining pipeline must be byte-identical to the
// sequential reference path for every thread count. For seeds x miners x
// threads in {1, 2, 4, 7}, the mined edge set and the noise (edge) counters
// must equal the single-threaded result.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mine/cyclic_miner.h"
#include "mine/edge_collector.h"
#include "mine/incremental.h"
#include "mine/metrics.h"
#include "mine/miner.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace procmine {
namespace {

const int kThreadAxis[] = {2, 4, 7};
const uint64_t kSeeds[] = {1, 7, 42};

ProcessGraph TruthDag(uint64_t seed) {
  RandomDagOptions options;
  options.num_activities = 24;
  options.edge_density = PaperEdgeDensity(options.num_activities);
  options.seed = seed;
  return GenerateRandomDag(options);
}

// A log with repeated activities for the cyclic miner: random sequences
// over a small alphabet, lengths 5-40, instantaneous instances.
EventLog RandomCyclicLog(uint64_t seed) {
  Rng rng(seed);
  const int kAlphabet = 12;
  std::vector<std::vector<std::string>> sequences;
  for (int e = 0; e < 60; ++e) {
    size_t len = static_cast<size_t>(rng.UniformRange(5, 40));
    std::vector<std::string> seq;
    seq.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      seq.push_back(std::string(1, static_cast<char>(
                                       'A' + rng.Uniform(kAlphabet))));
    }
    sequences.push_back(std::move(seq));
  }
  return EventLog::FromSequences(sequences);
}

ProcessGraph MineOrDie(const EventLog& log, MinerAlgorithm algorithm,
                       int threads, size_t chunk_size = 0) {
  MinerOptions options;
  options.algorithm = algorithm;
  options.num_threads = threads;
  options.chunk_size = chunk_size;
  auto mined = ProcessMiner(options).Mine(log);
  EXPECT_TRUE(mined.ok()) << mined.status().ToString();
  return mined.MoveValueOrDie();
}

void ExpectIdenticalAcrossThreads(const EventLog& log,
                                  MinerAlgorithm algorithm,
                                  const std::string& label) {
  ProcessGraph reference = MineOrDie(log, algorithm, /*threads=*/1);
  EdgeCounts reference_counts = CollectPrecedenceEdges(log);
  for (int threads : kThreadAxis) {
    ProcessGraph parallel = MineOrDie(log, algorithm, threads);
    EXPECT_TRUE(parallel.graph() == reference.graph())
        << label << " differs at threads=" << threads;
    EXPECT_EQ(parallel.graph().Edges(), reference.graph().Edges())
        << label << " edge list differs at threads=" << threads;

    ThreadPool pool(threads);
    EdgeCounts parallel_counts = CollectPrecedenceEdges(log, &pool);
    EXPECT_EQ(parallel_counts, reference_counts)
        << label << " noise counters differ at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, SpecialDagMiner) {
  for (uint64_t seed : kSeeds) {
    ProcessGraph truth = TruthDag(seed);
    auto log = GenerateLinearExtensionLog(truth, /*num_executions=*/80,
                                          seed * 31 + 5);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ExpectIdenticalAcrossThreads(
        *log, MinerAlgorithm::kSpecialDag,
        "special seed=" + std::to_string(seed));
  }
}

TEST(ParallelDeterminismTest, GeneralDagMiner) {
  for (uint64_t seed : kSeeds) {
    ProcessGraph truth = TruthDag(seed);
    WalkLogOptions options;
    options.num_executions = 120;
    options.seed = seed * 17 + 3;
    auto log = GenerateWalkLog(truth, options);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    ExpectIdenticalAcrossThreads(
        *log, MinerAlgorithm::kGeneralDag,
        "general seed=" + std::to_string(seed));
  }
}

TEST(ParallelDeterminismTest, CyclicMiner) {
  for (uint64_t seed : kSeeds) {
    EventLog log = RandomCyclicLog(seed);
    ExpectIdenticalAcrossThreads(log, MinerAlgorithm::kCyclic,
                                 "cyclic seed=" + std::to_string(seed));
  }
}

TEST(ParallelDeterminismTest, CyclicLabelingIsByteIdentical) {
  for (uint64_t seed : kSeeds) {
    EventLog log = RandomCyclicLog(seed);
    std::vector<ActivityId> base_map_seq;
    EventLog labeled_seq = LabelOccurrences(log, &base_map_seq);
    for (int threads : kThreadAxis) {
      ThreadPool pool(threads);
      std::vector<ActivityId> base_map_par;
      EventLog labeled_par =
          LabelOccurrences(log, &base_map_par, &pool);
      ASSERT_EQ(base_map_par, base_map_seq);
      ASSERT_EQ(labeled_par.num_executions(), labeled_seq.num_executions());
      ASSERT_EQ(labeled_par.dictionary().names(),
                labeled_seq.dictionary().names());
      for (size_t e = 0; e < labeled_seq.num_executions(); ++e) {
        const Execution& a = labeled_par.execution(e);
        const Execution& b = labeled_seq.execution(e);
        ASSERT_EQ(a.name(), b.name());
        ASSERT_EQ(a.Sequence(), b.Sequence());
      }
    }
  }
}

// The work-stealing granularity knob must be invisible in the output: for
// every miner, threads x chunk-size combinations (including chunk sizes that
// give one chunk per execution, ragged tails, and a single giant chunk) all
// yield the reference model.
TEST(ParallelDeterminismTest, ChunkSizeNeverChangesTheModel) {
  const size_t kChunkAxis[] = {1, 3, 16, 1000};
  auto sweep = [&](const EventLog& log, MinerAlgorithm algorithm,
                   const std::string& label) {
    ProcessGraph reference = MineOrDie(log, algorithm, /*threads=*/1);
    for (int threads : {1, 2, 8}) {
      for (size_t chunk : kChunkAxis) {
        ProcessGraph parallel = MineOrDie(log, algorithm, threads, chunk);
        EXPECT_EQ(parallel.graph().Edges(), reference.graph().Edges())
            << label << " threads=" << threads << " chunk=" << chunk;
      }
    }
  };
  for (uint64_t seed : {uint64_t{1}, uint64_t{42}}) {
    ProcessGraph truth = TruthDag(seed);
    auto linear = GenerateLinearExtensionLog(truth, /*num_executions=*/90,
                                             seed * 13 + 1);
    ASSERT_TRUE(linear.ok()) << linear.status().ToString();
    sweep(*linear, MinerAlgorithm::kSpecialDag,
          "special seed=" + std::to_string(seed));
    WalkLogOptions options;
    options.num_executions = 90;
    options.seed = seed * 13 + 1;
    auto walk = GenerateWalkLog(truth, options);
    ASSERT_TRUE(walk.ok()) << walk.status().ToString();
    sweep(*walk, MinerAlgorithm::kGeneralDag,
          "general seed=" + std::to_string(seed));
  }
  // The cyclic miner rides on the general machinery; one seed suffices.
  EventLog cyclic = RandomCyclicLog(3);
  ProcessGraph reference = MineOrDie(cyclic, MinerAlgorithm::kCyclic, 1);
  for (int threads : {2, 8}) {
    for (size_t chunk : kChunkAxis) {
      ProcessGraph parallel =
          MineOrDie(cyclic, MinerAlgorithm::kCyclic, threads, chunk);
      EXPECT_EQ(parallel.graph().Edges(), reference.graph().Edges())
          << "cyclic threads=" << threads << " chunk=" << chunk;
    }
  }
}

// Window eviction must be invisible too: a miner that absorbed the whole
// stream and evicted everything before the window equals batch-mining just
// the window — at every threads x chunk-size combination of the batch path.
TEST(ParallelDeterminismTest, WindowEvictionMatchesScratchMining) {
  const size_t kChunkAxis[] = {1, 3, 16, 1000};
  for (uint64_t seed : kSeeds) {
    ProcessGraph truth = TruthDag(seed);
    // Linear extensions touch every activity, so the evicted miner's
    // dictionary and the window log cover the same activity set.
    auto log = GenerateLinearExtensionLog(truth, /*num_executions=*/90,
                                          seed * 7 + 2);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    const size_t kWindowStart = 60;

    IncrementalMiner rolling;
    ASSERT_TRUE(rolling.AddLog(*log).ok());
    for (size_t i = 0; i < kWindowStart; ++i) {
      ASSERT_TRUE(rolling
                      .RemoveExecution(log->execution(i), log->dictionary())
                      .ok());
    }
    auto windowed = rolling.CurrentGraph();
    ASSERT_TRUE(windowed.ok());

    EventLog window_log;
    for (size_t i = kWindowStart; i < log->num_executions(); ++i) {
      std::vector<ActivityId> ids;
      for (ActivityId id : log->execution(i).Sequence()) {
        ids.push_back(window_log.dictionary().Intern(
            log->dictionary().Name(id)));
      }
      window_log.AddExecution(
          Execution::FromSequence(log->execution(i).name(), ids));
    }

    for (int threads : kThreadAxis) {
      for (size_t chunk : kChunkAxis) {
        ProcessGraph batch = MineOrDie(window_log, MinerAlgorithm::kGeneralDag,
                                       threads, chunk);
        EXPECT_TRUE(CompareByName(batch, *windowed).ExactMatch())
            << "seed=" << seed << " threads=" << threads
            << " chunk=" << chunk;
      }
    }
  }
}

// PlanChunks: the partition arithmetic behind the knob.
TEST(ParallelDeterminismTest, PlanChunksBounds) {
  EXPECT_EQ(PlanChunks(0, 4, 0), 1u);
  EXPECT_EQ(PlanChunks(100, 1, 0), 4u);   // default: ~4 chunks per thread
  EXPECT_EQ(PlanChunks(100, 4, 0), 15u);  // ceil(100 / ceil(100/16))
  EXPECT_EQ(PlanChunks(10, 4, 0), 10u);   // never more chunks than items
  EXPECT_EQ(PlanChunks(100, 4, 7), 15u);  // ceil(100 / 7)
  EXPECT_EQ(PlanChunks(100, 4, 1000), 1u);
  EXPECT_EQ(PlanChunks(100, 4, 1), 100u);
  for (size_t total : {1u, 5u, 64u, 1000u}) {
    for (int threads : {1, 2, 8}) {
      for (size_t chunk : {0u, 1u, 3u, 50u}) {
        size_t chunks = PlanChunks(total, threads, chunk);
        EXPECT_GE(chunks, 1u);
        EXPECT_LE(chunks, total);
      }
    }
  }
}

// The shard view itself: spans must partition [0, m) in order.
TEST(ParallelDeterminismTest, ShardsPartitionTheLog) {
  for (uint64_t seed : kSeeds) {
    EventLog log = RandomCyclicLog(seed);
    for (size_t shards : {1u, 2u, 3u, 7u, 100u, 1000u}) {
      std::vector<ExecutionSpan> spans = log.Shards(shards);
      ASSERT_FALSE(spans.empty());
      EXPECT_LE(spans.size(), std::min(shards, log.num_executions()));
      size_t expect_begin = 0;
      for (const ExecutionSpan& span : spans) {
        EXPECT_EQ(span.begin, expect_begin);
        EXPECT_LT(span.begin, span.end);
        expect_begin = span.end;
      }
      EXPECT_EQ(expect_begin, log.num_executions());
    }
  }
}

}  // namespace
}  // namespace procmine
