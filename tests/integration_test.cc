// End-to-end pipelines: definition -> engine -> log file -> reader -> miner
// -> conformance / recovery, across process shapes and log sizes.

#include <gtest/gtest.h>

#include <cstdio>

#include "graph/algorithms.h"
#include "log/reader.h"
#include "log/writer.h"
#include "mine/conformance.h"
#include "mine/metrics.h"
#include "mine/miner.h"
#include "mine/noise.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

TEST(IntegrationTest, FullPipelineThroughLogFile) {
  // Generate from a known definition, serialize to disk, read back, mine,
  // compare with the truth — the complete user journey.
  ProcessGraph truth = ProcessGraph::FromNamedEdges({{"Start", "Check"},
                                                     {"Check", "Ship"},
                                                     {"Check", "Refund"},
                                                     {"Ship", "Close"},
                                                     {"Refund", "Close"}});
  ProcessDefinition def(truth);
  NodeId check = *truth.FindActivity("Check");
  NodeId ship = *truth.FindActivity("Ship");
  NodeId refund = *truth.FindActivity("Refund");
  def.SetOutputSpec(check, OutputSpec::Uniform(1, 0, 9));
  def.SetCondition(check, ship, Condition::Compare(0, CmpOp::kLe, 6));
  def.SetCondition(check, refund, Condition::Compare(0, CmpOp::kGt, 6));
  Engine engine(&def);
  auto log = engine.GenerateLog(150, 11);
  ASSERT_TRUE(log.ok());

  std::string path = ::testing::TempDir() + "/integration_pipeline.log";
  ASSERT_TRUE(LogWriter::WriteFile(*log, path).ok());
  auto reread = LogReader::ReadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->num_executions(), 150u);

  auto mined = ProcessMiner().Mine(*reread);
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(CompareByName(truth, *mined).ExactMatch())
      << mined->ToDot();
}

TEST(IntegrationTest, ConditionsSurviveTheLogFile) {
  ProcessGraph truth = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"S", "B"}, {"A", "E"}, {"B", "E"}});
  ProcessDefinition def(truth);
  NodeId s = *truth.FindActivity("S");
  def.SetOutputSpec(s, OutputSpec::Uniform(1, 0, 99));
  def.SetCondition(s, *truth.FindActivity("A"),
                   Condition::Compare(0, CmpOp::kLt, 30));
  def.SetCondition(s, *truth.FindActivity("B"),
                   Condition::Compare(0, CmpOp::kGe, 30));
  Engine engine(&def);
  auto log = engine.GenerateLog(300, 12);
  ASSERT_TRUE(log.ok());

  std::string text = LogWriter::ToString(*log);
  auto reread = LogReader::ParseText(text);
  ASSERT_TRUE(reread.ok());

  auto annotated = ProcessMiner().MineWithConditions(*reread);
  ASSERT_TRUE(annotated.ok());
  NodeId ms = *annotated->graph.FindActivity("S");
  NodeId ma = *annotated->graph.FindActivity("A");
  for (const MinedCondition& c : annotated->conditions) {
    if (c.edge == (Edge{ms, ma})) {
      EXPECT_TRUE(c.learned);
      EXPECT_GT(c.test_accuracy, 0.9);
    }
  }
}

TEST(IntegrationTest, NoisyPipelineRecoversWithThreshold) {
  // Chain truth + swap noise; the Section 6 threshold cleans it up.
  ProcessGraph truth = ProcessGraph::FromNamedEdges(
      {{"A", "B"}, {"B", "C"}, {"C", "D"}, {"D", "E"}});
  auto clean = GenerateLinearExtensionLog(truth, 200, 13);
  ASSERT_TRUE(clean.ok());
  NoiseOptions noise;
  noise.swap_rate = 0.02;
  noise.seed = 14;
  EventLog noisy = InjectNoise(*clean, noise);

  MinerOptions options;
  options.noise_threshold =
      OptimalNoiseThreshold(static_cast<int64_t>(noisy.num_executions()),
                            0.02);
  options.algorithm = MinerAlgorithm::kSpecialDag;
  auto mined = ProcessMiner(options).Mine(noisy);
  ASSERT_TRUE(mined.ok());
  EXPECT_TRUE(CompareByName(truth, *mined).ExactMatch()) << mined->ToDot();
}

// Mining walker logs of random DAGs end-to-end, checking the Theorem 5
// conformance guarantee at scale.
class PipelinePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelinePropertyTest, WalkerMineConformance) {
  auto [n, m] = GetParam();
  RandomDagOptions dag_options;
  dag_options.num_activities = n;
  dag_options.edge_density = PaperEdgeDensity(n);
  dag_options.seed = static_cast<uint64_t>(n * 101 + m);
  ProcessGraph truth = GenerateRandomDag(dag_options);

  auto log = GenerateWalkLog(
      truth, {.num_executions = static_cast<size_t>(m),
              .seed = static_cast<uint64_t>(n + m)});
  ASSERT_TRUE(log.ok());
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  EXPECT_FALSE(HasCycle(mined->graph()));

  ConformanceChecker checker(&*mined);
  ConformanceReport report = checker.CheckLog(*log);
  EXPECT_TRUE(report.irredundant)
      << "n=" << n << " m=" << m << "\n"
      << report.Summary(log->dictionary());
  EXPECT_TRUE(report.execution_complete)
      << "n=" << n << " m=" << m << "\n"
      << report.Summary(log->dictionary());
  // Full dependency completeness needs enough executions (see the
  // Theorem 5 small-sample gap documented in EXPERIMENTS.md).
  if (m >= 100) {
    EXPECT_TRUE(report.dependency_complete)
        << "n=" << n << " m=" << m << "\n"
        << report.Summary(log->dictionary());
  }

  // Recovery quality: every mined dependency-closure edge that is missing
  // from the truth closure would be a spurious dependency; the truth's
  // dependencies can be under-observed but observed ones are never wrong,
  // so the truth closure must contain the mined closure of co-observed
  // pairs. We check the weaker, always-true direction: no truth dependency
  // is CONTRADICTED, i.e. mined closure never contains the reverse of a
  // truth-closure edge.
  DirectedGraph truth_closure = TransitiveClosure(truth.graph());
  DirectedGraph mined_closure = TransitiveClosure(mined->graph());
  for (const Edge& e : truth_closure.Edges()) {
    EXPECT_FALSE(mined_closure.HasEdge(e.to, e.from))
        << "mined graph reverses true dependency " << truth.name(e.from)
        << " -> " << truth.name(e.to);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelinePropertyTest,
                         ::testing::Combine(::testing::Values(6, 10, 15),
                                            ::testing::Values(30, 150)));

TEST(IntegrationTest, CyclicEngineToMinerRoundTrip) {
  // Token-fire engine produces looped executions; the cyclic miner must
  // expose the loop edge.
  ProcessGraph truth = ProcessGraph::FromNamedEdges(
      {{"S", "Work"}, {"Work", "Review"}, {"Review", "Work"},
       {"Review", "E"}});
  ProcessDefinition def(truth);
  NodeId review = *truth.FindActivity("Review");
  def.SetOutputSpec(review, OutputSpec::Uniform(1, 0, 9));
  def.SetCondition(review, *truth.FindActivity("Work"),
                   Condition::Compare(0, CmpOp::kLt, 4));
  def.SetCondition(review, *truth.FindActivity("E"),
                   Condition::Compare(0, CmpOp::kGe, 4));
  EngineOptions engine_options;
  engine_options.mode = ExecutionMode::kTokenFire;
  Engine engine(&def, engine_options);
  auto log = engine.GenerateLog(300, 15);
  ASSERT_TRUE(log.ok());

  EXPECT_EQ(ProcessMiner::SelectAlgorithm(*log), MinerAlgorithm::kCyclic);
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  NodeId w = *mined->FindActivity("Work");
  NodeId r = *mined->FindActivity("Review");
  EXPECT_TRUE(mined->graph().HasEdge(w, r));
  EXPECT_TRUE(mined->graph().HasEdge(r, w));  // the loop
}

TEST(IntegrationTest, LargeScaleSmoke) {
  // 50-vertex graph, 1000 executions: must stay fast and conformal on the
  // dependency axes (execution completeness is checked on a sample).
  RandomDagOptions dag_options;
  dag_options.num_activities = 50;
  dag_options.edge_density = PaperEdgeDensity(50);
  dag_options.seed = 16;
  ProcessGraph truth = GenerateRandomDag(dag_options);
  auto log = GenerateWalkLog(truth, {.num_executions = 1000, .seed = 17});
  ASSERT_TRUE(log.ok());
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  EXPECT_GT(mined->graph().num_edges(), 0);
  EXPECT_FALSE(HasCycle(mined->graph()));
}

}  // namespace
}  // namespace procmine
