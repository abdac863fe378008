// Run budgets: sticky exhaustion, graceful miner degradation, and the
// degraded RunReport. A budget cut must never fail the run — it returns a
// valid partial model and records what was dropped.

#include <gtest/gtest.h>

#include <string>

#include "log/reader.h"
#include "mine/miner.h"
#include "obs/report.h"
#include "util/budget.h"

namespace procmine {
namespace {

EventLog AcyclicLog() {
  // A -> B -> C plus a parallel D; every activity exactly once -> special
  // DAG unless the algorithm is forced.
  std::string text;
  for (int i = 0; i < 8; ++i) {
    std::string e = "e" + std::to_string(i);
    text += e + " A START 0\n" + e + " A END 1\n";
    text += e + " B START 2\n" + e + " B END 3\n";
    text += e + " D START 2\n" + e + " D END 4\n";
    text += e + " C START 5\n" + e + " C END 6\n";
  }
  return LogReader::ParseText(text).ValueOrDie();
}

EventLog CyclicLog() {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    std::string e = "c" + std::to_string(i);
    text += e + " A START 0\n" + e + " A END 1\n";
    text += e + " B START 2\n" + e + " B END 3\n";
    text += e + " A START 4\n" + e + " A END 5\n";
  }
  return LogReader::ParseText(text).ValueOrDie();
}

TEST(RunBudgetTest, UnlimitedNeverTrips) {
  RunBudget budget;
  budget.Start();
  EXPECT_TRUE(budget.Unlimited());
  EXPECT_EQ(budget.Check(), BudgetResource::kNone);
  EXPECT_EQ(budget.Exhausted(), BudgetResource::kNone);
}

TEST(RunBudgetTest, ZeroDeadlineTripsImmediatelyAndSticks) {
  RunBudget::Limits limits;
  limits.deadline_ms = 0;
  RunBudget budget(limits);
  budget.Start();
  EXPECT_EQ(budget.Check(), BudgetResource::kDeadline);
  EXPECT_EQ(budget.Check(), BudgetResource::kDeadline);
  EXPECT_EQ(budget.Exhausted(), BudgetResource::kDeadline);
}

TEST(RunBudgetTest, TinyMemoryCeilingTrips) {
  // Any running process has more than one page resident.
  RunBudget::Limits limits;
  limits.max_memory_bytes = 1;
  RunBudget budget(limits);
  budget.Start();
  ASSERT_GT(CurrentRssBytes(), 0);
  EXPECT_EQ(budget.Check(), BudgetResource::kMemory);
}

TEST(RunBudgetTest, BudgetCutRecordsOnlyTheFirstCut) {
  RunBudget::Limits limits;
  limits.deadline_ms = 0;
  RunBudget budget(limits);
  budget.Start();
  DegradationInfo degradation;
  EXPECT_TRUE(BudgetCut(&budget, &degradation, "phase.one", "dropped one"));
  EXPECT_TRUE(BudgetCut(&budget, &degradation, "phase.two", "dropped two"));
  EXPECT_TRUE(degradation.degraded);
  EXPECT_EQ(degradation.cut_phase, "phase.one");
  EXPECT_EQ(degradation.dropped, "dropped one");
  EXPECT_EQ(degradation.resource, BudgetResource::kDeadline);
}

TEST(RunBudgetTest, NullBudgetIsNeverACut) {
  DegradationInfo degradation;
  EXPECT_FALSE(BudgetCut(nullptr, &degradation, "p", "d"));
  EXPECT_FALSE(degradation.degraded);
}

class MinerBudgetTest : public ::testing::TestWithParam<MinerAlgorithm> {};

TEST_P(MinerBudgetTest, ExpiredDeadlineYieldsPartialModelNotError) {
  EventLog log =
      GetParam() == MinerAlgorithm::kCyclic ? CyclicLog() : AcyclicLog();
  RunBudget::Limits limits;
  limits.deadline_ms = 0;
  RunBudget budget(limits);
  budget.Start();
  DegradationInfo degradation;
  MinerOptions options;
  options.algorithm = GetParam();
  options.budget = &budget;
  options.degradation = &degradation;
  auto model = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(degradation.degraded);
  EXPECT_EQ(degradation.resource, BudgetResource::kDeadline);
  EXPECT_FALSE(degradation.cut_phase.empty());
  // The cut happened before edge collection: the partial model is the
  // activity set with no edges.
  EXPECT_EQ(model->graph().num_edges(), 0);
  EXPECT_EQ(model->num_activities(), log.num_activities());
}

INSTANTIATE_TEST_SUITE_P(AllMiners, MinerBudgetTest,
                         ::testing::Values(MinerAlgorithm::kSpecialDag,
                                           MinerAlgorithm::kGeneralDag,
                                           MinerAlgorithm::kCyclic));

TEST(MinerBudgetTest2, MaxExecutionsMinesAPrefix) {
  EventLog log = AcyclicLog();
  RunBudget::Limits limits;
  limits.max_executions = 3;
  RunBudget budget(limits);
  budget.Start();
  DegradationInfo degradation;
  MinerOptions options;
  options.budget = &budget;
  options.degradation = &degradation;
  auto model = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(degradation.degraded);
  EXPECT_EQ(degradation.resource, BudgetResource::kExecutions);
  EXPECT_EQ(degradation.cut_phase, "miner.input");
  // The first 3 executions carry the full structure, so the truncated mine
  // still finds edges.
  EXPECT_GT(model->graph().num_edges(), 0);

  // An equal-or-higher cap is not a truncation and not a degradation.
  DegradationInfo clean;
  limits.max_executions = static_cast<int64_t>(log.num_executions());
  RunBudget roomy(limits);
  roomy.Start();
  options.budget = &roomy;
  options.degradation = &clean;
  ASSERT_TRUE(ProcessMiner(options).Mine(log).ok());
  EXPECT_FALSE(clean.degraded);
}

TEST(ReportBudgetTest, DegradedReportNamesCutPhaseAndSkipsAudit) {
  EventLog log = AcyclicLog();
  RunBudget::Limits limits;
  limits.deadline_ms = 0;
  RunBudget budget(limits);
  budget.Start();
  obs::RunReportOptions options;
  options.miner.budget = &budget;
  auto report = obs::BuildRunReport(log, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->degradation.degraded);
  EXPECT_FALSE(report->degradation.cut_phase.empty());
  // The audit phases were skipped, not run against the partial model.
  EXPECT_TRUE(report->conformance.verdicts.empty());
  EXPECT_TRUE(report->sensitivity.empty());
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"cut_phase\""), std::string::npos);
  EXPECT_NE(report->SummaryText().find("DEGRADED"), std::string::npos);
}

TEST(ReportBudgetTest, CleanRunSerializesNullDegradation) {
  EventLog log = AcyclicLog();
  auto report = obs::BuildRunReport(log, {});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->degradation.degraded);
  std::string json = report->ToJson();
  EXPECT_NE(json.find("\"degraded\": false"), std::string::npos);
  EXPECT_NE(json.find("\"degradation\": null"), std::string::npos);
  EXPECT_NE(json.find("\"ingestion\": null"), std::string::npos);
}

}  // namespace
}  // namespace procmine
