// Regression cases pinned during development — each test encodes a bug that
// existed at some point (or a semantic corner that was easy to get wrong)
// so it can never silently return.

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "mine/conformance.h"
#include "mine/miner.h"
#include "mine/relations.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

// The Section 8.1 walker's verbatim removal rule lets an ancestor execute
// AFTER its descendant (it enters the ready list late via another parent).
// Our walker bans unexecuted ancestors of executed activities; generated
// logs must never violate a truth dependency.
TEST(RegressionTest, WalkerNeverViolatesTruthDependencies) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomDagOptions dag_options;
    dag_options.num_activities = 14;
    dag_options.edge_density = 0.35;
    dag_options.seed = seed;
    ProcessGraph truth = GenerateRandomDag(dag_options);
    auto log = GenerateWalkLog(truth, {.num_executions = 60, .seed = seed});
    ASSERT_TRUE(log.ok());
    BitMatrix reach = ReachabilityMatrix(truth.graph());
    for (const Execution& exec : log->executions()) {
      std::vector<ActivityId> seq = exec.Sequence();
      for (size_t i = 0; i < seq.size(); ++i) {
        for (size_t j = i + 1; j < seq.size(); ++j) {
          EXPECT_FALSE(reach[static_cast<size_t>(seq[j])].Test(
              static_cast<size_t>(seq[i])))
              << "ancestor executed after descendant (seed " << seed << ")";
        }
      }
    }
  }
}

// Touching intervals (end == next start) must NOT count as "terminates
// before starts": the relation is strict. A serialized single-agent
// schedule therefore needs strictly increasing handoffs, which the agent
// engine guarantees by starting tasks at max(enable, free) + 1.
TEST(RegressionTest, TouchingIntervalsAreNotOrdered) {
  Execution exec("c");
  exec.Append({0, 0, 5});
  exec.Append({1, 5, 8});
  EXPECT_FALSE(exec.TerminatesBefore(0, 1));

  ProcessDefinition def(ProcessGraph::FromNamedEdges({{"S", "E"}}));
  EngineOptions options;
  options.num_agents = 1;
  options.min_duration = 2;
  options.max_duration = 4;
  Engine engine(&def, options);
  Rng rng(3);
  auto run = engine.Run("c", &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->TerminatesBefore(0, 1));  // strict gap enforced
}

// Definition 6's dependency clause is evaluated within the PRESENT
// activities: a dependency routed only through an absent activity must not
// invalidate an execution (the operational reading the paper itself gives).
TEST(RegressionTest, AbsentIntermediateDoesNotBindOrdering) {
  // Graph: S->C->X->B->E plus S->B and C->E, so C -> X -> B is a path, but
  // an execution without X may order B before C only if no OTHER path
  // orders them... construct S->{C,B} parallel, C->X, X->B, {B,E}:
  DirectedGraph g(5);
  g.AddEdge(0, 1);  // S->C
  g.AddEdge(0, 2);  // S->B
  g.AddEdge(1, 3);  // C->X
  g.AddEdge(3, 2);  // X->B
  g.AddEdge(2, 4);  // B->E
  g.AddEdge(1, 4);  // C->E
  ProcessGraph graph(std::move(g), {"S", "C", "B", "X", "E"});
  ConformanceChecker checker(&graph);
  // B wholly before C, X absent: must be consistent (the C->X->B chain
  // never materialized).
  Execution exec = Execution::FromSequence("r", {0, 2, 1, 4});  // S B C E
  EXPECT_TRUE(checker.CheckExecution(exec).ok());
  // With X present the chain binds: S C X ... B must come after.
  Execution bad("r2");
  bad.Append({0, 0, 0});
  bad.Append({2, 1, 1});  // B early
  bad.Append({1, 2, 2});  // C
  bad.Append({3, 3, 3});  // X
  bad.Append({4, 4, 4});
  EXPECT_FALSE(checker.CheckExecution(bad).ok());
}

// Graphs mined from tiny logs may carry never-observed activities as
// isolated vertices; the conformance checker must ignore them when locating
// the initiating/terminating activities.
TEST(RegressionTest, IsolatedVerticesDoNotBreakConformance) {
  EventLog log = EventLog::FromCompactStrings({"ABE"});
  log.dictionary().Intern("Ghost");  // never occurs
  auto mined = ProcessMiner().Mine(log);
  ASSERT_TRUE(mined.ok());
  EXPECT_EQ(mined->num_activities(), 4);  // ghost kept as isolated vertex
  ConformanceChecker checker(&*mined);
  EXPECT_TRUE(checker.CheckLog(log).conformal());
}

// Example 3 extended: the paper's prose calls C and D independent, but the
// literal Definition 3 chain keeps C dependent on D. Both the relation AND
// Algorithm 2's output must stay mutually consistent (the mined graph
// carries the D -> B -> C path).
TEST(RegressionTest, LiteralDefinition3MatchesMinedGraph) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCE", "ACDE", "ADBE", "ADCE"});
  Relations rel = Relations::Compute(log);
  ActivityId c = *log.dictionary().Find("C");
  ActivityId d = *log.dictionary().Find("D");
  ASSERT_TRUE(rel.DependsOn(c, d));
  auto mined = ProcessMiner().Mine(log);
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(HasPath(mined->graph(), d, c));
  EXPECT_FALSE(HasPath(mined->graph(), c, d));
}

// Repeated activities in one execution may pair with multiple START events;
// pairing must be FIFO so intervals nest sensibly.
TEST(RegressionTest, FifoPairingOfRepeatedActivity) {
  std::vector<Event> events = {
      {"c", "A", EventType::kStart, 0, {}},
      {"c", "A", EventType::kStart, 1, {}},
      {"c", "A", EventType::kEnd, 2, {10}},
      {"c", "A", EventType::kEnd, 3, {20}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  const Execution& exec = log->execution(0);
  ASSERT_EQ(exec.size(), 2u);
  EXPECT_EQ(exec[0].start, 0);
  EXPECT_EQ(exec[0].end, 2);
  EXPECT_EQ(exec[1].start, 1);
  EXPECT_EQ(exec[1].end, 3);
}

// The noise threshold must be applied BEFORE step 3: a rare reversal must
// not dissolve a strong ordering into independence.
TEST(RegressionTest, ThresholdAppliesBeforeTwoCycleRemoval) {
  std::vector<std::string> execs(99, "AB");
  execs.push_back("BA");
  EventLog log = EventLog::FromCompactStrings(execs);
  MinerOptions options;
  options.noise_threshold = 2;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  auto mined = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(mined.ok());
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_TRUE(mined->graph().HasEdge(a, b));
}

}  // namespace
}  // namespace procmine
