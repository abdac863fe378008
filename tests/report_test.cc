// RunReport (obs/report.h) and the provenance layer behind it: every kept
// edge clears the threshold, the provenance partitions the candidate set,
// reports are byte-identical across thread counts, and the noise sweep
// re-cuts the recorded counters without re-mining.

#include "obs/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "log/event_log.h"
#include "mine/provenance.h"
#include "obs/metrics.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

using obs::BuildRunReport;
using obs::RunReport;
using obs::RunReportOptions;

// The paper's Example 7 log {ABCF, ACDF, ADEF, AECF}: C, D, E form a
// followings-SCC, so Algorithm 2 exercises the intra-SCC drop besides the
// reduction drop.
EventLog Example7Log() {
  return EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
}

TEST(RunReportTest, ProvenancePartitionsCandidates) {
  EventLog log = Example7Log();
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_FALSE(report->edges.empty());
  std::set<std::pair<NodeId, NodeId>> kept;
  for (const EdgeProvenance& p : report->edges) {
    // Evidence invariants hold for every candidate, kept or dropped.
    EXPECT_GE(p.support, 1) << "candidates are witnessed at least once";
    EXPECT_GE(p.first_witness, 0);
    EXPECT_LE(p.first_witness, p.last_witness);
    EXPECT_LT(p.last_witness, report->num_executions);
    if (p.kept()) kept.insert({p.edge.from, p.edge.to});
  }

  // The kept candidates are exactly the mined model's edges.
  std::set<std::pair<NodeId, NodeId>> model_edges;
  for (const Edge& e : report->model.graph().Edges()) {
    model_edges.insert({e.from, e.to});
  }
  EXPECT_EQ(kept, model_edges);
}

TEST(RunReportTest, Example7RecordsIntraSccDrops) {
  EventLog log = Example7Log();
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  int64_t intra_scc = 0;
  for (const EdgeProvenance& p : report->edges) {
    if (p.reason == DropReason::kIntraScc) ++intra_scc;
  }
  // C, D, E are mutually ordered across the four executions; the edges
  // inside that SCC must be dropped and attributed to step 4.
  EXPECT_GT(intra_scc, 0);
}

TEST(RunReportTest, KeptEdgesClearTheThreshold) {
  // AB appears once among four executions: at T=2 it must be dropped as
  // below_threshold, and every kept edge must reach the threshold.
  EventLog log = EventLog::FromCompactStrings({"ABCF", "ACF", "ACF", "ACF"});
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  options.miner.noise_threshold = 2;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  bool saw_below_threshold = false;
  for (const EdgeProvenance& p : report->edges) {
    if (p.kept()) {
      EXPECT_GE(p.support, options.miner.noise_threshold)
          << report->activity_names[static_cast<size_t>(p.edge.from)] << "->"
          << report->activity_names[static_cast<size_t>(p.edge.to)];
    }
    if (p.reason == DropReason::kBelowThreshold) {
      saw_below_threshold = true;
      EXPECT_LT(p.support, options.miner.noise_threshold);
    }
  }
  EXPECT_TRUE(saw_below_threshold);
}

TEST(RunReportTest, WitnessIndicesPointAtExecutions) {
  // AB is witnessed only by executions 0 and 3 — the recorded first/last
  // witness ids must be exactly those log positions.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ACB", "CAB", "ABC"});
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  auto a = log.dictionary().Find("A");
  auto b = log.dictionary().Find("B");
  ASSERT_TRUE(a.ok() && b.ok());
  bool found = false;
  for (const EdgeProvenance& p : report->edges) {
    if (p.edge.from == *a && p.edge.to == *b) {
      found = true;
      EXPECT_EQ(p.support, 4);  // A wholly precedes B in every execution
      EXPECT_EQ(p.first_witness, 0);
      EXPECT_EQ(p.last_witness, 3);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RunReportTest, CyclicRunsRecordLabeledSpace) {
  // Submit (Review Revise)* Review Approve — Review repeats, so Algorithm 3
  // mines in the occurrence-labeled space.
  EventLog log = EventLog::FromCompactStrings({"SRA", "SRVRA", "SRVRA"});
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kCyclic;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->occurrence_labeled);
  ASSERT_EQ(report->base_endpoints.size(), report->edges.size());
  bool saw_labeled_name = false;
  for (const std::string& name : report->activity_names) {
    if (name.find('#') != std::string::npos) saw_labeled_name = true;
  }
  EXPECT_TRUE(saw_labeled_name);

  // Merging kept labeled edges by base endpoints (dropping from == to)
  // reproduces the mined model exactly — step 8 of Algorithm 3.
  std::set<std::pair<NodeId, NodeId>> merged;
  for (size_t i = 0; i < report->edges.size(); ++i) {
    if (!report->edges[i].kept()) continue;
    auto [from, to] = report->base_endpoints[i];
    if (from != to) merged.insert({from, to});
  }
  std::set<std::pair<NodeId, NodeId>> model_edges;
  for (const Edge& e : report->model.graph().Edges()) {
    model_edges.insert({e.from, e.to});
  }
  EXPECT_EQ(merged, model_edges);
}

TEST(RunReportTest, VerdictsNameTheFirstViolatingEvent) {
  // Three clean executions mine A->B->C->D; the fourth ("ACBD" at threshold
  // 2) shares the endpoints but violates the mined B->C dependency: C
  // (instance index 1) ran before B.
  EventLog log =
      EventLog::FromCompactStrings({"ABCD", "ABCD", "ABCD", "ACBD"});
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  options.miner.noise_threshold = 2;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->conformance.verdicts.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(report->conformance.verdicts[i].consistent);
    EXPECT_EQ(report->conformance.verdicts[i].first_violation_event, -1);
  }
  const ExecutionVerdict& bad = report->conformance.verdicts[3];
  EXPECT_FALSE(bad.consistent);
  // Running C early severs its only incoming dependency (B->C), so the
  // verdict names C — the exact wording (unreachable vs. ordering) is the
  // checker's business, the event index is the contract here.
  EXPECT_NE(bad.violation.find("'C'"), std::string::npos) << bad.violation;
  EXPECT_EQ(bad.first_violation_event, 1);  // C is the second instance
  EXPECT_FALSE(report->conformance.execution_complete);
}

TEST(RunReportTest, SensitivitySweepReCutsRecordedCounters) {
  EventLog log = Example7Log();
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->sensitivity.size(), 5u);
  const int64_t candidates = static_cast<int64_t>(report->edges.size());
  int64_t previous_kept = candidates + 1;
  int64_t previous_threshold = 0;
  for (const obs::NoiseSensitivityRow& row : report->sensitivity) {
    EXPECT_GT(row.threshold, previous_threshold) << "sorted, distinct";
    previous_threshold = row.threshold;
    EXPECT_EQ(row.edges_kept + row.edges_dropped, candidates);
    EXPECT_LE(row.edges_kept, previous_kept) << "kept is monotone in T";
    previous_kept = row.edges_kept;
    EXPECT_GE(row.lost_bound, 0.0);
    EXPECT_LE(row.lost_bound, 1.0);
    EXPECT_GE(row.spurious_bound, 0.0);
    EXPECT_LE(row.spurious_bound, 1.0);
  }
  // T=1 keeps every candidate by definition.
  ASSERT_EQ(report->sensitivity.front().threshold, 1);
  EXPECT_EQ(report->sensitivity.front().edges_kept, candidates);
}

TEST(RunReportTest, ExplicitSweepIsHonored) {
  EventLog log = Example7Log();
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  options.sweep = {3, 1, 2, 2, 4};  // unsorted, duplicated on purpose
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->sensitivity.size(), 4u);
  EXPECT_EQ(report->sensitivity[0].threshold, 1);
  EXPECT_EQ(report->sensitivity[3].threshold, 4);
}

TEST(RunReportTest, JsonAndDotCarryTheStory) {
  EventLog log = EventLog::FromCompactStrings({"ABCF", "ACF", "ACF", "ACF"});
  RunReportOptions options;
  options.miner.algorithm = MinerAlgorithm::kGeneralDag;
  options.miner.noise_threshold = 2;
  auto report = BuildRunReport(log, options);
  ASSERT_TRUE(report.ok());

  std::string json = report->ToJson();
  for (const char* key :
       {"\"schema_version\"", "\"algorithm\"", "\"model\"", "\"edges\"",
        "\"conformance\"", "\"verdicts\"", "\"sensitivity\"", "\"metrics\"",
        "\"below_threshold\"", "\"first_witness\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'))
      << json;
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'))
      << json;

  std::string dot = report->ToAnnotatedDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos) << dot;
  EXPECT_NE(dot.find("below_threshold"), std::string::npos) << dot;

  std::string table = report->SensitivityTableText();
  EXPECT_NE(table.find("spurious_bound"), std::string::npos);
  std::string summary = report->SummaryText();
  EXPECT_NE(summary.find("candidate edges"), std::string::npos);
}

TEST(RunReportTest, ReportBytesAreThreadCountInvariant) {
  // A synthetic workload big enough that the sharded paths actually split.
  RandomDagOptions dag_options;
  dag_options.num_activities = 12;
  dag_options.seed = 7;
  ProcessGraph truth = GenerateRandomDag(dag_options);
  WalkLogOptions log_options;
  log_options.num_executions = 200;
  log_options.seed = 8;
  auto log = GenerateWalkLog(truth, log_options);
  ASSERT_TRUE(log.ok());

  obs::SetMetricsEnabled(true);
  // Warm up once so every lazily-registered metric exists before the runs
  // being compared (registration order must not differ between them).
  {
    RunReportOptions warmup;
    warmup.miner.num_threads = 8;
    ASSERT_TRUE(BuildRunReport(*log, warmup).ok());
  }
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    obs::MetricsRegistry::Get().ResetAll();
    RunReportOptions options;
    options.miner.noise_threshold = 2;
    options.miner.num_threads = threads;
    auto report = BuildRunReport(*log, options);
    ASSERT_TRUE(report.ok()) << "threads=" << threads;
    std::string json = report->ToJson();
    if (baseline.empty()) {
      baseline = json;
    } else {
      EXPECT_EQ(json, baseline) << "threads=" << threads;
    }
  }
  obs::SetMetricsEnabled(false);
}

TEST(RunReportTest, RecorderResetClearsState) {
  EventLog log = Example7Log();
  ProvenanceRecorder recorder;
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.provenance = &recorder;
  ASSERT_TRUE(ProcessMiner(options).Mine(log).ok());
  EXPECT_GT(recorder.num_candidates(), 0);
  recorder.Reset();
  EXPECT_EQ(recorder.num_candidates(), 0);
  EXPECT_TRUE(recorder.Edges().empty());
  EXPECT_FALSE(recorder.has_base_mapping());
}

}  // namespace
}  // namespace procmine
