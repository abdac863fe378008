// Tests for the agent-pool simulation mode of the engine (durations + a
// fixed number of agents, Section 2's "queue ... next available agent").

#include <gtest/gtest.h>

#include <set>

#include "graph/algorithms.h"
#include "mine/metrics.h"
#include "mine/miner.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

ProcessDefinition WideDef() {
  // S fans out to 4 parallel workers joining into E.
  return ProcessDefinition(ProcessGraph::FromNamedEdges({{"S", "W1"},
                                                         {"S", "W2"},
                                                         {"S", "W3"},
                                                         {"S", "W4"},
                                                         {"W1", "E"},
                                                         {"W2", "E"},
                                                         {"W3", "E"},
                                                         {"W4", "E"}}));
}

EngineOptions AgentOptions(int agents, int64_t min_d, int64_t max_d) {
  EngineOptions options;
  options.num_agents = agents;
  options.min_duration = min_d;
  options.max_duration = max_d;
  return options;
}

TEST(EngineAgentsTest, AllActivitiesRunAndEndLast) {
  ProcessDefinition def = WideDef();
  Engine engine(&def, AgentOptions(3, 1, 10));
  Rng rng(1);
  auto exec = engine.Run("c", &rng);
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_EQ(exec->size(), 6u);
  NodeId e = *def.process_graph().FindActivity("E");
  EXPECT_EQ(exec->Sequence().back(), e);
}

TEST(EngineAgentsTest, StartTimesAreDistinct) {
  ProcessDefinition def = WideDef();
  Engine engine(&def, AgentOptions(4, 0, 3));
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    std::set<int64_t> starts;
    for (const ActivityInstance& inst : exec->instances()) {
      EXPECT_TRUE(starts.insert(inst.start).second)
          << "duplicate start at " << inst.start;
    }
  }
}

TEST(EngineAgentsTest, CausalityRespected) {
  // No activity may start before a predecessor (by graph path) ended.
  ProcessDefinition def = WideDef();
  BitMatrix reach = ReachabilityMatrix(def.graph());
  Engine engine(&def, AgentOptions(4, 1, 10));
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    for (size_t i = 0; i < exec->size(); ++i) {
      for (size_t j = 0; j < exec->size(); ++j) {
        if (i == j) continue;
        NodeId u = (*exec)[i].activity;
        NodeId v = (*exec)[j].activity;
        if (reach[static_cast<size_t>(u)].Test(static_cast<size_t>(v))) {
          EXPECT_GE((*exec)[j].start, (*exec)[i].end)
              << def.name(u) << " -> " << def.name(v);
        }
      }
    }
  }
}

TEST(EngineAgentsTest, MultipleAgentsOverlapSingleAgentDoesNot) {
  ProcessDefinition def = WideDef();
  auto count_overlaps = [&](int agents, uint64_t seed) {
    Engine engine(&def, AgentOptions(agents, 5, 10));
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    PROCMINE_CHECK_OK(exec.status());
    int overlaps = 0;
    for (size_t i = 0; i < exec->size(); ++i) {
      for (size_t j = i + 1; j < exec->size(); ++j) {
        bool disjoint = exec->TerminatesBefore(i, j) ||
                        exec->TerminatesBefore(j, i);
        overlaps += disjoint ? 0 : 1;
      }
    }
    return overlaps;
  };
  int multi = 0, single = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    multi += count_overlaps(4, seed);
    single += count_overlaps(1, seed);
  }
  EXPECT_GT(multi, 0);     // parallel workers overlap
  EXPECT_EQ(single, 0);    // one agent serializes everything
}

TEST(EngineAgentsTest, OverlappingLogsStillMineCorrectly) {
  // The miner must treat genuinely overlapping workers as independent and
  // still recover the fan-out/fan-in structure.
  ProcessDefinition def = WideDef();
  Engine engine(&def, AgentOptions(4, 2, 8));
  auto log = engine.GenerateLog(200, 31);
  ASSERT_TRUE(log.ok());
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  GraphComparison cmp = CompareByName(def.process_graph(), *mined);
  EXPECT_TRUE(cmp.ExactMatch())
      << "missing=" << cmp.missing_edges
      << " spurious=" << cmp.spurious_edges << "\n" << mined->ToDot();
}

TEST(EngineAgentsTest, SingleAgentSerializedLogsMineToo) {
  // With one agent, workers serialize in random order; independence is
  // still discovered through order variation across executions.
  ProcessDefinition def = WideDef();
  Engine engine(&def, AgentOptions(1, 1, 3));
  auto log = engine.GenerateLog(300, 33);
  ASSERT_TRUE(log.ok());
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  GraphComparison cmp = CompareByName(def.process_graph(), *mined);
  EXPECT_TRUE(cmp.ExactMatch())
      << "missing=" << cmp.missing_edges
      << " spurious=" << cmp.spurious_edges;
}

TEST(EngineAgentsTest, ConditionsStillRouteInAgentMode) {
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"S", "B"}, {"A", "E"}, {"B", "E"}});
  ProcessDefinition def(std::move(g));
  NodeId s = *def.process_graph().FindActivity("S");
  def.SetOutputSpec(s, OutputSpec::Uniform(1, 0, 99));
  def.SetCondition(s, *def.process_graph().FindActivity("A"),
                   Condition::Compare(0, CmpOp::kLt, 50));
  def.SetCondition(s, *def.process_graph().FindActivity("B"),
                   Condition::Compare(0, CmpOp::kGe, 50));
  Engine engine(&def, AgentOptions(2, 1, 5));
  auto log = engine.GenerateLog(100, 35);
  ASSERT_TRUE(log.ok());
  for (const Execution& exec : log->executions()) {
    EXPECT_EQ(exec.size(), 3u);  // S, one branch, E
  }
}

}  // namespace
}  // namespace procmine
