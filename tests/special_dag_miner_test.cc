#include "mine/miner.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "mine/metrics.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

// Algorithm 1 through the facade.
Result<ProcessGraph> MineSpecial(const EventLog& log) {
  return ProcessMiner({.algorithm = MinerAlgorithm::kSpecialDag}).Mine(log);
}

// Asserts the mined graph's edges, given in name space.
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

TEST(SpecialDagMinerTest, PaperExample6RecoversFigure1) {
  // Log {ABCDE, ACDBE, ACBDE} -> the Figure 1 graph (Example 6).
  EventLog log =
      EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kSpecialDag;
  auto mined = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined,
              {{"A", "B"}, {"A", "C"}, {"B", "E"}, {"C", "D"}, {"D", "E"}});
}

TEST(SpecialDagMinerTest, SingleExecutionYieldsChain) {
  EventLog log = EventLog::FromCompactStrings({"ABCD"});
  auto mined = MineSpecial(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"}, {"B", "C"}, {"C", "D"}});
}

TEST(SpecialDagMinerTest, FullyParallelMiddle) {
  // B and C in both orders: independent; only A-before and D-after remain.
  EventLog log = EventLog::FromCompactStrings({"ABCD", "ACBD"});
  auto mined = MineSpecial(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"}, {"A", "C"}, {"B", "D"}, {"C", "D"}});
}

TEST(SpecialDagMinerTest, RejectsMissingActivities) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto mined = MineSpecial(log);
  EXPECT_FALSE(mined.ok());
  EXPECT_TRUE(mined.status().IsInvalidArgument());
  EXPECT_NE(mined.status().message().find("GeneralDagMiner"),
            std::string::npos);
}

TEST(SpecialDagMinerTest, RejectsRepeatedActivities) {
  EventLog log = EventLog::FromCompactStrings({"ABA"});
  auto mined = MineSpecial(log);
  EXPECT_FALSE(mined.ok());
  EXPECT_TRUE(mined.status().IsInvalidArgument());
}

TEST(SpecialDagMinerTest, RejectsEmptyLog) {
  EventLog log;
  EXPECT_FALSE(MineSpecial(log).ok());
}

TEST(SpecialDagMinerTest, MinedGraphIsTransitivelyReduced) {
  EventLog log = EventLog::FromCompactStrings(
      {"ABCDE", "ACDBE", "ACBDE", "ABCDE"});
  auto mined = MineSpecial(log);
  ASSERT_TRUE(mined.ok());
  auto reduced = TransitiveReduction(mined->graph());
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(mined->graph() == *reduced);
}

TEST(SpecialDagMinerTest, NoiseThresholdDropsRareOrderings) {
  // 9x ABC + 1x corrupted ACB: with T=2 the corrupted observation of C
  // before B disappears and the chain is recovered.
  std::vector<std::string> execs(9, "ABC");
  execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);

  MinerOptions clean;
  clean.algorithm = MinerAlgorithm::kSpecialDag;
  clean.noise_threshold = 2;
  auto mined = ProcessMiner(clean).Mine(log);
  ASSERT_TRUE(mined.ok());
  ExpectEdges(*mined, {{"A", "B"}, {"B", "C"}});

  // Without the threshold, B and C look independent.
  auto raw = MineSpecial(log);
  ASSERT_TRUE(raw.ok());
  ExpectEdges(*raw, {{"A", "B"}, {"A", "C"}});
}

// Property sweep (Section 3 guarantee): on exactly-once logs of a random
// DAG, the mined graph's closure must contain every true dependency, and
// with many executions must equal the truth's closure exactly.
class SpecialMinerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SpecialMinerPropertyTest, ClosureConvergesToTruth) {
  int n = GetParam();
  RandomDagOptions dag_options;
  dag_options.num_activities = n;
  dag_options.edge_density = 0.3;
  dag_options.seed = static_cast<uint64_t>(n);
  ProcessGraph truth = GenerateRandomDag(dag_options);

  auto log = GenerateLinearExtensionLog(truth, 300, 17);
  ASSERT_TRUE(log.ok());
  auto mined = MineSpecial(*log);
  ASSERT_TRUE(mined.ok());

  GraphComparison cmp = CompareClosuresByName(truth, *mined);
  // Dependencies always present in order => never missing.
  EXPECT_EQ(cmp.missing_edges, 0);
  // With 300 executions, small graphs converge exactly.
  if (n <= 12) {
    EXPECT_TRUE(cmp.ExactMatch())
        << "spurious=" << cmp.spurious_edges << " at n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpecialMinerPropertyTest,
                         ::testing::Values(3, 5, 8, 10, 12, 20));

}  // namespace
}  // namespace procmine
