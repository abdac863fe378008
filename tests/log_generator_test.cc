#include "synth/log_generator.h"

#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

ProcessGraph Figure1() {
  return ProcessGraph::FromNamedEdges({{"A", "B"},
                                       {"A", "C"},
                                       {"B", "E"},
                                       {"C", "D"},
                                       {"C", "E"},
                                       {"D", "E"}});
}

TEST(WalkLogTest, ExecutionsStartAtSourceEndAtSink) {
  ProcessGraph g = Figure1();
  WalkLogOptions options;
  options.num_executions = 50;
  options.seed = 3;
  auto log = GenerateWalkLog(g, options);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 50u);
  NodeId source = *g.Source();
  NodeId sink = *g.Sink();
  for (const Execution& exec : log->executions()) {
    ASSERT_FALSE(exec.empty());
    EXPECT_EQ(exec.Sequence().front(), source);
    EXPECT_EQ(exec.Sequence().back(), sink);
  }
}

TEST(WalkLogTest, NoActivityRepeatsInAcyclicWalk) {
  ProcessGraph g = Figure1();
  WalkLogOptions options;
  options.num_executions = 100;
  options.seed = 4;
  auto log = GenerateWalkLog(g, options);
  ASSERT_TRUE(log.ok());
  for (const Execution& exec : log->executions()) {
    std::set<ActivityId> seen;
    for (ActivityId a : exec.Sequence()) {
      EXPECT_TRUE(seen.insert(a).second) << "repeat in walk";
    }
  }
}

TEST(WalkLogTest, SubsetsActuallyOccur) {
  // Figure 1 admits executions without D (A,B/C,E): the walker must produce
  // executions of different lengths.
  ProcessGraph g = Figure1();
  WalkLogOptions options;
  options.num_executions = 200;
  options.seed = 5;
  auto log = GenerateWalkLog(g, options);
  ASSERT_TRUE(log.ok());
  std::set<size_t> lengths;
  for (const Execution& exec : log->executions()) lengths.insert(exec.size());
  EXPECT_GT(lengths.size(), 1u);
}

TEST(WalkLogTest, DeterministicPerSeed) {
  ProcessGraph g = Figure1();
  WalkLogOptions options;
  options.num_executions = 20;
  options.seed = 6;
  auto a = GenerateWalkLog(g, options);
  auto b = GenerateWalkLog(g, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(a->execution(i).Sequence(), b->execution(i).Sequence());
  }
}

TEST(WalkLogTest, IdsMatchGraphVertexIds) {
  ProcessGraph g = Figure1();
  WalkLogOptions options;
  options.num_executions = 5;
  auto log = GenerateWalkLog(g, options);
  ASSERT_TRUE(log.ok());
  for (NodeId v = 0; v < g.num_activities(); ++v) {
    EXPECT_EQ(log->dictionary().Name(v), g.name(v));
  }
}

TEST(WalkLogTest, RejectsCyclicGraph) {
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"A", "B"}, {"B", "A"}, {"B", "E"}});
  WalkLogOptions options;
  EXPECT_FALSE(GenerateWalkLog(g, options).ok());
}

TEST(LinearExtensionLogTest, EveryExecutionContainsAllActivitiesOnce) {
  ProcessGraph g = Figure1();
  auto log = GenerateLinearExtensionLog(g, 50, 7);
  ASSERT_TRUE(log.ok());
  for (const Execution& exec : log->executions()) {
    EXPECT_EQ(exec.size(), static_cast<size_t>(g.num_activities()));
    std::vector<ActivityId> seq = exec.Sequence();
    std::set<ActivityId> seen(seq.begin(), seq.end());
    EXPECT_EQ(seen.size(), static_cast<size_t>(g.num_activities()));
  }
}

TEST(LinearExtensionLogTest, RespectsAllDependencies) {
  RandomDagOptions dag_options;
  dag_options.num_activities = 15;
  dag_options.edge_density = 0.3;
  dag_options.seed = 8;
  ProcessGraph g = GenerateRandomDag(dag_options);
  auto log = GenerateLinearExtensionLog(g, 50, 9);
  ASSERT_TRUE(log.ok());
  BitMatrix reach = ReachabilityMatrix(g.graph());
  for (const Execution& exec : log->executions()) {
    std::vector<ActivityId> seq = exec.Sequence();
    for (size_t i = 0; i < seq.size(); ++i) {
      for (size_t j = i + 1; j < seq.size(); ++j) {
        // Later activity must never be an ancestor of an earlier one.
        EXPECT_FALSE(reach[static_cast<size_t>(seq[j])].Test(
            static_cast<size_t>(seq[i])))
            << "dependency violated in linear extension";
      }
    }
  }
}

TEST(LinearExtensionLogTest, ProducesDifferentExtensions) {
  ProcessGraph g = Figure1();
  auto log = GenerateLinearExtensionLog(g, 50, 10);
  ASSERT_TRUE(log.ok());
  std::set<std::vector<ActivityId>> distinct;
  for (const Execution& exec : log->executions()) {
    distinct.insert(exec.Sequence());
  }
  EXPECT_GT(distinct.size(), 1u);
}

TEST(LinearExtensionLogTest, WorksOnChain) {
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"A", "B"}, {"B", "C"}, {"C", "D"}});
  auto log = GenerateLinearExtensionLog(g, 10, 11);
  ASSERT_TRUE(log.ok());
  for (const Execution& exec : log->executions()) {
    EXPECT_EQ(exec.Sequence(), (std::vector<ActivityId>{0, 1, 2, 3}));
  }
}

}  // namespace
}  // namespace procmine
