#include "mine/incremental.h"

#include <gtest/gtest.h>

#include <deque>

#include "mine/miner.h"
#include "mine/metrics.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

TEST(IncrementalMinerTest, EmptyMinerHasNoGraph) {
  IncrementalMiner miner;
  EXPECT_FALSE(miner.CurrentGraph().ok());
  EXPECT_EQ(miner.num_executions(), 0u);
}

TEST(IncrementalMinerTest, MatchesBatchMinerOnExample7) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto batch =
      ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(log);
  ASSERT_TRUE(batch.ok());

  IncrementalMiner incremental;
  ASSERT_TRUE(incremental.AddLog(log).ok());
  auto streamed = incremental.CurrentGraph();
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(CompareByName(*batch, *streamed).ExactMatch());
}

TEST(IncrementalMinerTest, MatchesBatchOnRandomWalkerLogs) {
  RandomDagOptions options;
  options.num_activities = 15;
  options.edge_density = 0.4;
  options.seed = 5;
  ProcessGraph truth = GenerateRandomDag(options);
  auto log = GenerateWalkLog(truth, {.num_executions = 300, .seed = 6});
  ASSERT_TRUE(log.ok());

  auto batch =
      ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(*log);
  ASSERT_TRUE(batch.ok());
  IncrementalMiner incremental;
  ASSERT_TRUE(incremental.AddLog(*log).ok());
  auto streamed = incremental.CurrentGraph();
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(CompareByName(*batch, *streamed).ExactMatch());
}

TEST(IncrementalMinerTest, AddSequenceInterface) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B", "C"}).ok());
  ASSERT_TRUE(miner.AddSequence({"A", "C"}).ok());
  auto graph = miner.CurrentGraph();
  ASSERT_TRUE(graph.ok());
  ProcessGraph expected = ProcessGraph::FromNamedEdges(
      {{"A", "B"}, {"B", "C"}, {"A", "C"}});
  EXPECT_TRUE(CompareByName(expected, *graph).ExactMatch());
}

TEST(IncrementalMinerTest, ModelEvolvesAsEvidenceArrives) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B", "C"}).ok());
  auto after_one = miner.CurrentGraph();
  ASSERT_TRUE(after_one.ok());
  // Single chain observed: B appears ordered between A and C.
  EXPECT_TRUE(after_one->graph().HasEdge(0, 1));  // A->B

  // New evidence: B and C in the other order too -> they become parallel.
  ASSERT_TRUE(miner.AddSequence({"A", "C", "B"}).ok());
  auto after_two = miner.CurrentGraph();
  ASSERT_TRUE(after_two.ok());
  ActivityId b = *after_two->FindActivity("B");
  ActivityId c = *after_two->FindActivity("C");
  EXPECT_FALSE(after_two->graph().HasEdge(b, c));
  EXPECT_FALSE(after_two->graph().HasEdge(c, b));
}

TEST(IncrementalMinerTest, CachedUntilNewData) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B"}).ok());
  auto g1 = miner.CurrentGraph();
  auto g2 = miner.CurrentGraph();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_TRUE(g1->graph() == g2->graph());
}

TEST(IncrementalMinerTest, RejectsRepeats) {
  IncrementalMiner miner;
  Status st = miner.AddSequence({"A", "B", "A"});
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("CyclicMiner"), std::string::npos);
  EXPECT_EQ(miner.num_executions(), 0u);
}

TEST(IncrementalMinerTest, RejectsEmptyExecution) {
  IncrementalMiner miner;
  EXPECT_FALSE(miner.AddSequence({}).ok());
}

TEST(IncrementalMinerTest, ThresholdAdjustableBetweenQueries) {
  IncrementalMiner miner;
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(miner.AddSequence({"A", "B", "C"}).ok());
  }
  ASSERT_TRUE(miner.AddSequence({"A", "C", "B"}).ok());

  auto raw = miner.CurrentGraph();
  ASSERT_TRUE(raw.ok());
  ActivityId b = *raw->FindActivity("B");
  ActivityId c = *raw->FindActivity("C");
  EXPECT_FALSE(raw->graph().HasEdge(b, c));  // both orders seen

  miner.SetNoiseThreshold(2);
  auto thresholded = miner.CurrentGraph();
  ASSERT_TRUE(thresholded.ok());
  EXPECT_TRUE(thresholded->graph().HasEdge(b, c));  // reversal filtered
}

TEST(IncrementalMinerTest, DistinctSetTrackingDeduplicates) {
  IncrementalMiner miner;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(miner.AddSequence({"A", "B", "C"}).ok());
    ASSERT_TRUE(miner.AddSequence({"A", "C"}).ok());
  }
  EXPECT_EQ(miner.num_executions(), 200u);
  EXPECT_EQ(miner.num_distinct_activity_sets(), 2u);
}

TEST(IncrementalMinerTest, DictionaryGrowsAcrossDifferentSources) {
  EventLog log1 = EventLog::FromCompactStrings({"AB"});
  EventLog log2 = EventLog::FromCompactStrings({"BC"});  // B=0 there
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddLog(log1).ok());
  ASSERT_TRUE(miner.AddLog(log2).ok());
  EXPECT_EQ(miner.num_activities(), 3);
  auto graph = miner.CurrentGraph();
  ASSERT_TRUE(graph.ok());
  // Ids remapped by name: B->C edge must connect the shared B.
  ActivityId b = *graph->FindActivity("B");
  ActivityId c = *graph->FindActivity("C");
  EXPECT_TRUE(graph->graph().HasEdge(b, c));
}

TEST(IncrementalMinerTest, RemoveIsExactInverseOfAdd) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B", "C"}).ok());
  ASSERT_TRUE(miner.AddSequence({"A", "C", "B"}).ok());
  ASSERT_TRUE(miner.RemoveSequence({"A", "C", "B"}).ok());
  EXPECT_EQ(miner.num_executions(), 1u);

  // State must equal a miner that never saw the removed execution.
  IncrementalMiner fresh;
  ASSERT_TRUE(fresh.AddSequence({"A", "B", "C"}).ok());
  auto evicted = miner.CurrentGraph();
  auto reference = fresh.CurrentGraph();
  ASSERT_TRUE(evicted.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(CompareByName(*reference, *evicted).ExactMatch());
  EXPECT_EQ(miner.num_distinct_activity_sets(), 1u);
}

TEST(IncrementalMinerTest, RemoveUnknownSequenceFailsAtomically) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B"}).ok());

  // Never-interned name.
  Status st = miner.RemoveSequence({"A", "Z"});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(miner.num_executions(), 1u);

  // Known names, but this execution (order) was never absorbed.
  st = miner.RemoveSequence({"B", "A"});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(miner.num_executions(), 1u);

  // The one real execution is still removable afterwards: the failed
  // removals left every counter untouched.
  EXPECT_TRUE(miner.RemoveSequence({"A", "B"}).ok());
  EXPECT_EQ(miner.num_executions(), 0u);
  EXPECT_FALSE(miner.RemoveSequence({"A", "B"}).ok());
}

TEST(IncrementalMinerTest, RemoveRejectsInvalidExecutions) {
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddSequence({"A", "B"}).ok());
  EXPECT_FALSE(miner.RemoveSequence({}).ok());
  EXPECT_FALSE(miner.RemoveSequence({"A", "A"}).ok());
  EXPECT_EQ(miner.num_executions(), 1u);
}

TEST(IncrementalMinerTest, EdgeSupportTracksAddAndRemove) {
  IncrementalMiner miner;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(miner.AddSequence({"A", "B"}).ok());
  }
  ActivityId a = *miner.dictionary().Find("A");
  ActivityId b = *miner.dictionary().Find("B");
  EXPECT_EQ(miner.EdgeSupport(a, b), 3);
  EXPECT_EQ(miner.EdgeSupport(b, a), 0);
  ASSERT_TRUE(miner.RemoveSequence({"A", "B"}).ok());
  EXPECT_EQ(miner.EdgeSupport(a, b), 2);
  ASSERT_TRUE(miner.RemoveSequence({"A", "B"}).ok());
  ASSERT_TRUE(miner.RemoveSequence({"A", "B"}).ok());
  EXPECT_EQ(miner.EdgeSupport(a, b), 0);
  // Fully evicted pairs leave no residue in the live counters.
  EXPECT_TRUE(miner.edge_counts().empty());
}

TEST(IncrementalMinerTest, SlidingWindowEquivalentToScratchMiner) {
  // Maintain a 20-execution window over a 60-execution stream; at every
  // step the incremental model must match mining the window from scratch.
  EventLog log = EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF",
                                               "AECF", "ABDF", "ACEF"});
  std::vector<size_t> stream;
  for (size_t i = 0; i < 60; ++i) stream.push_back(i % 6);

  IncrementalMiner rolling;
  std::deque<size_t> window;
  for (size_t step = 0; step < stream.size(); ++step) {
    ASSERT_TRUE(rolling
                    .AddExecution(log.execution(stream[step]),
                                  log.dictionary())
                    .ok());
    window.push_back(stream[step]);
    if (window.size() > 20) {
      ASSERT_TRUE(rolling
                      .RemoveExecution(log.execution(window.front()),
                                       log.dictionary())
                      .ok());
      window.pop_front();
    }
    if (step % 7 != 0) continue;  // spot-check a spread of steps
    IncrementalMiner scratch;
    for (size_t idx : window) {
      ASSERT_TRUE(
          scratch.AddExecution(log.execution(idx), log.dictionary()).ok());
    }
    auto a = rolling.CurrentGraph();
    auto b = scratch.CurrentGraph();
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(CompareByName(*b, *a).ExactMatch()) << "step " << step;
  }
}

TEST(IncrementalMinerTest, IntervalExecutionsSupported) {
  EventLog log;
  log.dictionary().Intern("A");
  log.dictionary().Intern("B");
  Execution exec("c");
  exec.Append({0, 0, 10});
  exec.Append({1, 5, 15});  // overlaps: no precedence edge
  log.AddExecution(std::move(exec));
  IncrementalMiner miner;
  ASSERT_TRUE(miner.AddLog(log).ok());
  auto graph = miner.CurrentGraph();
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->graph().num_edges(), 0);
}

}  // namespace
}  // namespace procmine
