#include "mine/miner.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "mine/conformance.h"
#include "mine/metrics.h"
#include "reduce_every_execution.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

// Algorithm 2 through the facade.
Result<ProcessGraph> MineGeneral(const EventLog& log) {
  return ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(log);
}

void ExpectEdges(
    const ProcessGraph& g,
    const std::vector<std::pair<std::string, std::string>>& expected) {
  ProcessGraph want = ProcessGraph::FromNamedEdges(expected);
  GraphComparison cmp = CompareByName(want, g);
  EXPECT_TRUE(cmp.ExactMatch())
      << "missing=" << cmp.missing_edges << " spurious=" << cmp.spurious_edges
      << "\nmined:\n"
      << g.ToDot();
}

TEST(GeneralDagMinerTest, PaperExample7) {
  // Log {ABCF, ACDF, ADEF, AECF}: C, D, E form a strongly connected
  // component of followings and are therefore independent; the final graph
  // fans out of A and into F.
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto mined = MineGeneral(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"},
                       {"B", "C"},
                       {"A", "C"},
                       {"A", "D"},
                       {"A", "E"},
                       {"C", "F"},
                       {"D", "F"},
                       {"E", "F"}});
}

TEST(GeneralDagMinerTest, PaperExample5Log) {
  // Log {ADCE, ABCDE} (Example 5); the mined graph must be conformal, in
  // particular it must allow ADCE.
  EventLog log = EventLog::FromCompactStrings({"ADCE", "ABCDE"});
  auto mined = MineGeneral(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"},
                       {"A", "C"},
                       {"A", "D"},
                       {"B", "C"},
                       {"B", "D"},
                       {"C", "E"},
                       {"D", "E"}});
  ConformanceChecker checker(&*mined);
  ConformanceReport report = checker.CheckLog(log);
  EXPECT_TRUE(report.conformal()) << report.Summary(log.dictionary());
}

TEST(GeneralDagMinerTest, AgreesWithSpecialMinerOnExactlyOnceLogs) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  auto general = MineGeneral(log);
  ASSERT_TRUE(general.ok());
  // Same answer as Algorithm 1 (Example 6 -> Figure 1).
  ExpectEdges(*general,
              {{"A", "B"}, {"A", "C"}, {"B", "E"}, {"C", "D"}, {"D", "E"}});
}

TEST(GeneralDagMinerTest, OptionalActivitySkipEdgeKept) {
  // B optional: A->B->C and A->C both observed; the direct A->C edge must
  // survive because execution AC needs it.
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto mined = MineGeneral(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"}, {"B", "C"}, {"A", "C"}});
}

TEST(GeneralDagMinerTest, UnneededShortcutRemoved) {
  // B always present: the shortcut A->C is never in any execution's
  // transitive reduction, so steps 5-6 drop it.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  auto mined = MineGeneral(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"}, {"B", "C"}});
}

TEST(GeneralDagMinerTest, RejectsRepeats) {
  EventLog log = EventLog::FromCompactStrings({"ABAB"});
  auto mined = MineGeneral(log);
  EXPECT_FALSE(mined.ok());
  EXPECT_NE(mined.status().message().find("CyclicMiner"), std::string::npos);
}

TEST(GeneralDagMinerTest, RejectsEmptyLog) {
  EventLog log;
  EXPECT_FALSE(MineGeneral(log).ok());
}

TEST(GeneralDagMinerTest, MemoizationDoesNotChangeResult) {
  ProcessGraph truth;
  {
    RandomDagOptions options;
    options.num_activities = 12;
    options.edge_density = 0.4;
    options.seed = 3;
    truth = GenerateRandomDag(options);
  }
  auto log = GenerateWalkLog(truth, {.num_executions = 200, .seed = 4});
  ASSERT_TRUE(log.ok());

  // The miner reduces each distinct activity set once; reducing every
  // execution's set must keep the same edges.
  auto a = MineGeneral(*log);
  ProcessGraph b = MineReducingEveryExecution(*log, /*threshold=*/1);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->graph() == b.graph());
}

TEST(GeneralDagMinerTest, MinedGraphIsAlwaysAcyclic) {
  EventLog log = EventLog::FromCompactStrings(
      {"ABCF", "ACDF", "ADEF", "AECF", "ABF", "AF"});
  auto mined = MineGeneral(log);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(HasCycle(mined->graph()));
}

TEST(GeneralDagMinerTest, NoiseThresholdRecoversChainFromCorruptedLog) {
  // Example 9's setting with missing activities mixed in.
  std::vector<std::string> execs(20, "ABCDE");
  execs.insert(execs.end(), 5, "ABCE");  // D optional sometimes
  execs.push_back("ADCBE");              // one corrupted record
  EventLog log = EventLog::FromCompactStrings(execs);

  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.noise_threshold = 3;
  auto mined = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(mined.ok());
  // The corrupted reversals (D<C, C<B, D<B) fall under the threshold; the
  // chain with the optional-D bypass is recovered.
  ExpectEdges(*mined, {{"A", "B"},
                       {"B", "C"},
                       {"C", "D"},
                       {"D", "E"},
                       {"C", "E"}});
}

// Property sweep over random DAGs and the paper's Section 8.1 walker: the
// mined graph must be conformal with the generating log (Theorem 5).
class GeneralMinerPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GeneralMinerPropertyTest, MinedGraphIsConformal) {
  auto [n, density, m] = GetParam();
  RandomDagOptions dag_options;
  dag_options.num_activities = n;
  dag_options.edge_density = density;
  dag_options.seed = static_cast<uint64_t>(n * 31 + m);
  ProcessGraph truth = GenerateRandomDag(dag_options);

  auto log = GenerateWalkLog(
      truth, {.num_executions = static_cast<size_t>(m),
              .seed = static_cast<uint64_t>(m * 7 + n)});
  ASSERT_TRUE(log.ok());
  auto mined = MineGeneral(*log);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(HasCycle(mined->graph()));

  ConformanceChecker checker(&*mined);
  ConformanceReport report = checker.CheckLog(*log);
  EXPECT_TRUE(report.irredundant) << report.Summary(log->dictionary());
  EXPECT_TRUE(report.execution_complete)
      << report.Summary(log->dictionary());
  // Dependency completeness: steps 5-6 keep only edges some execution's
  // replay needs, which can break CHAIN dependencies (Definition 3
  // transitivity across different executions) when the log is badly
  // under-sampled — a gap in Theorem 5 we document in EXPERIMENTS.md. With
  // a reasonable number of executions the property holds.
  if (m >= 100) {
    EXPECT_TRUE(report.dependency_complete)
        << report.Summary(log->dictionary());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneralMinerPropertyTest,
    ::testing::Combine(::testing::Values(5, 8, 12), ::testing::Values(0.3, 0.6),
                       ::testing::Values(20, 100)));

}  // namespace
}  // namespace procmine
