#include "mine/edge_collector.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "reference_edge_collector.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace procmine {
namespace {

TEST(EdgeCollectorTest, CountsAllOrderedPairs) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  EdgeCounts counts = CollectPrecedenceEdges(log);
  // A<B, A<C, B<C.
  EXPECT_EQ(counts.size(), 3u);
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  EXPECT_EQ(counts.at(PackEdge(a, b)), 1);
  EXPECT_EQ(counts.at(PackEdge(a, c)), 1);
  EXPECT_EQ(counts.at(PackEdge(b, c)), 1);
}

TEST(EdgeCollectorTest, CountsOncePerExecution) {
  EventLog log = EventLog::FromCompactStrings({"AB", "AB", "BA"});
  EdgeCounts counts = CollectPrecedenceEdges(log);
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_EQ(counts.at(PackEdge(a, b)), 2);
  EXPECT_EQ(counts.at(PackEdge(b, a)), 1);
}

TEST(EdgeCollectorTest, RepeatedActivityCountsEdgeOnce) {
  // A...A...B: pair (A,B) appears twice within the execution but counts 1.
  EventLog log = EventLog::FromCompactStrings({"AAB"});
  EdgeCounts counts = CollectPrecedenceEdges(log);
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_EQ(counts.at(PackEdge(a, b)), 1);
  EXPECT_EQ(counts.at(PackEdge(a, a)), 1);  // self pair from the repeat
}

TEST(EdgeCollectorTest, OverlappingIntervalsProduceNoEdge) {
  Execution exec("c");
  exec.Append({0, 0, 10});
  exec.Append({1, 5, 15});
  EventLog log;
  log.dictionary().Intern("A");
  log.dictionary().Intern("B");
  log.AddExecution(std::move(exec));
  EXPECT_TRUE(CollectPrecedenceEdges(log).empty());
}

// A random log with every shape the collector must count like the
// reference: repeated activities, equal and overlapping timestamps,
// single-instance executions, and ids above 2^16 (the range of Algorithm
// 3's labelled ids). The collector reads ids only, so the dictionary stays
// empty.
EventLog RandomCollectorLog(uint64_t seed, size_t executions) {
  Rng rng(seed);
  std::vector<ActivityId> alphabet;
  for (ActivityId a = 0; a < 10; ++a) alphabet.push_back(a);
  for (ActivityId a = 0; a < 6; ++a) alphabet.push_back(65536 + 997 * a);
  EventLog log;
  for (size_t e = 0; e < executions; ++e) {
    const int64_t k = rng.Uniform(5) == 0 ? 1 : rng.UniformRange(2, 14);
    std::vector<ActivityInstance> instances;
    for (int64_t i = 0; i < k; ++i) {
      const int64_t start = rng.UniformRange(0, 12);
      const int64_t length = static_cast<int64_t>(rng.Uniform(3));
      instances.push_back(
          {alphabet[rng.Uniform(alphabet.size())], start, start + length});
    }
    std::stable_sort(instances.begin(), instances.end(),
                     [](const ActivityInstance& a, const ActivityInstance& b) {
                       return a.start < b.start;
                     });
    Execution exec("e" + std::to_string(e));
    for (ActivityInstance& inst : instances) exec.Append(std::move(inst));
    log.AddExecution(std::move(exec));
  }
  return log;
}

TEST(EdgeCollectorPropertyTest, MatchesReferenceAtAnyPartition) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    EventLog log = RandomCollectorLog(seed, 400);
    const EdgeCounts want_counts = reference::CollectPrecedenceEdges(log);
    const EdgeEvidenceMap want_evidence = reference::CollectEvidence(log);
    // Step 5-6's table, gathered one execution at a time in log order.
    IdSetTable want_sets;
    for (const Execution& exec : log.executions()) {
      std::vector<ActivityId> present = exec.Sequence();
      std::sort(present.begin(), present.end());
      want_sets.Insert(present);
    }
    ASSERT_GT(want_sets.size(), 1u);
    for (int threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      for (size_t chunk : {size_t{1}, size_t{7}, size_t{0}}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed << " threads "
                                        << threads << " chunk " << chunk);
        EXPECT_EQ(CollectPrecedenceEdges(log, &pool, nullptr, chunk),
                  want_counts);

        ProvenanceRecorder recorder;
        IdSetTable sets;
        EXPECT_EQ(CollectPrecedenceEdges(log, &pool, &recorder, chunk, &sets),
                  want_counts);
        ASSERT_EQ(recorder.evidence().size(), want_evidence.size());
        for (const auto& [key, want] : want_evidence) {
          auto it = recorder.evidence().find(key);
          ASSERT_NE(it, recorder.evidence().end());
          EXPECT_EQ(it->second.support, want.support);
          EXPECT_EQ(it->second.first_witness, want.first_witness);
          EXPECT_EQ(it->second.last_witness, want.last_witness);
        }

        EXPECT_EQ(sets.inserted(), want_sets.inserted());
        ASSERT_EQ(sets.size(), want_sets.size());
        for (size_t i = 0; i < sets.size(); ++i) {
          EXPECT_TRUE(std::ranges::equal(sets[i], want_sets[i])) << i;
        }
      }
    }
  }
}

TEST(BuildPrecedenceGraphTest, ThresholdFiltersRareEdges) {
  EventLog log = EventLog::FromCompactStrings({"AB", "AB", "AB", "BA"});
  EdgeCounts counts = CollectPrecedenceEdges(log);
  DirectedGraph g1 = BuildPrecedenceGraph(counts, log.num_activities(), 1);
  EXPECT_EQ(g1.num_edges(), 2);  // both directions
  DirectedGraph g2 = BuildPrecedenceGraph(counts, log.num_activities(), 2);
  EXPECT_EQ(g2.num_edges(), 1);  // only A->B survives
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_TRUE(g2.HasEdge(a, b));
  DirectedGraph g5 = BuildPrecedenceGraph(counts, log.num_activities(), 5);
  EXPECT_EQ(g5.num_edges(), 0);
}

TEST(RemoveTwoCyclesTest, RemovesBothOrientations) {
  DirectedGraph g =
      DirectedGraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}});
  RemoveTwoCycles(&g);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(RemoveTwoCyclesTest, RemovesSelfLoops) {
  DirectedGraph g(2);
  g.AddEdge(0, 0);
  g.AddEdge(0, 1);
  RemoveTwoCycles(&g);
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(RemoveTwoCyclesTest, LeavesLongerCyclesAlone) {
  DirectedGraph g = DirectedGraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}});
  RemoveTwoCycles(&g);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST(RemoveIntraSccEdgesTest, RemovesThreeCycle) {
  // Example 7's SCC {C, D, E} pattern: cycle plus outside edges.
  DirectedGraph g = DirectedGraph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 1}, {2, 4}});
  // SCC {1,2,3}; edges inside it removed, others kept.
  RemoveIntraSccEdges(&g);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 4));
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(2, 3));
  EXPECT_FALSE(g.HasEdge(3, 1));
}

TEST(RemoveIntraSccEdgesTest, DagUnchanged) {
  DirectedGraph g = DirectedGraph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3},
                                                 {2, 3}});
  DirectedGraph before = g;
  RemoveIntraSccEdges(&g);
  EXPECT_TRUE(g == before);
}

}  // namespace
}  // namespace procmine
