#include "mine/performance.h"

#include <gtest/gtest.h>

#include "mine/miner.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

/// Hand-built log over graph S(0) -> A(1) -> E(2), S -> E skip:
/// two executions take A, one skips.
struct Fixture {
  ProcessGraph graph;
  EventLog log;

  Fixture() {
    DirectedGraph g(3);
    g.AddEdge(0, 1);
    g.AddEdge(1, 2);
    g.AddEdge(0, 2);
    graph = ProcessGraph(std::move(g), {"S", "A", "E"});
    log.dictionary().Intern("S");
    log.dictionary().Intern("A");
    log.dictionary().Intern("E");

    Execution e1("c1");  // S[0,2] A[3,7] E[10,10]
    e1.Append({0, 0, 2});
    e1.Append({1, 3, 7});
    e1.Append({2, 10, 10});
    log.AddExecution(std::move(e1));

    Execution e2("c2");  // S[0,1] A[2,4] E[5,5]
    e2.Append({0, 0, 1});
    e2.Append({1, 2, 4});
    e2.Append({2, 5, 5});
    log.AddExecution(std::move(e2));

    Execution e3("c3");  // S[0,2] E[4,4] (skip)
    e3.Append({0, 0, 2});
    e3.Append({2, 4, 4});
    log.AddExecution(std::move(e3));
  }
};

TEST(PerformanceTest, ActivityAggregates) {
  Fixture f;
  PerformanceReport report = AnalyzePerformance(f.graph, f.log);
  const ActivityPerformance& s = report.activities[0];
  EXPECT_EQ(s.executions, 3);
  EXPECT_EQ(s.instances, 3);
  EXPECT_NEAR(s.mean_duration, (2 + 1 + 2) / 3.0, 1e-9);
  EXPECT_EQ(s.min_duration, 1);
  EXPECT_EQ(s.max_duration, 2);

  const ActivityPerformance& a = report.activities[1];
  EXPECT_EQ(a.executions, 2);
  EXPECT_NEAR(a.mean_duration, (4 + 2) / 2.0, 1e-9);
}

TEST(PerformanceTest, EdgeProbabilitiesAndWaits) {
  Fixture f;
  PerformanceReport report = AnalyzePerformance(f.graph, f.log);
  auto edge = [&](NodeId from, NodeId to) -> const EdgePerformance& {
    for (const EdgePerformance& perf : report.edges) {
      if (perf.edge == (Edge{from, to})) return perf;
    }
    static EdgePerformance none;
    return none;
  };
  // S->A: 2 of 3 S-executions.
  EXPECT_EQ(edge(0, 1).traversals, 2);
  EXPECT_NEAR(edge(0, 1).probability, 2.0 / 3.0, 1e-9);
  // waits: 3-2=1 and 2-1=1.
  EXPECT_NEAR(edge(0, 1).mean_wait, 1.0, 1e-9);
  // A->E: both A-executions; waits 10-7=3 and 5-4=1.
  EXPECT_EQ(edge(1, 2).traversals, 2);
  EXPECT_NEAR(edge(1, 2).probability, 1.0, 1e-9);
  EXPECT_NEAR(edge(1, 2).mean_wait, 2.0, 1e-9);
  // S->E realized in all 3 (S always wholly before E).
  EXPECT_EQ(edge(0, 2).traversals, 3);
}

TEST(PerformanceTest, SummaryReadable) {
  Fixture f;
  PerformanceReport report = AnalyzePerformance(f.graph, f.log);
  std::string summary = report.Summary(f.log.dictionary());
  EXPECT_NE(summary.find("activities:"), std::string::npos);
  EXPECT_NE(summary.find("edges:"), std::string::npos);
  EXPECT_NE(summary.find("p=0.67"), std::string::npos);
}

TEST(PerformanceTest, DotCarriesLabels) {
  Fixture f;
  PerformanceReport report = AnalyzePerformance(f.graph, f.log);
  std::string dot = PerformanceDot(f.graph, report);
  EXPECT_NE(dot.find("label=\"p=0.67"), std::string::npos);
}

TEST(PerformanceTest, EmptyLog) {
  Fixture f;
  EventLog empty;
  for (const std::string& name : f.log.dictionary().names()) {
    empty.dictionary().Intern(name);
  }
  PerformanceReport report = AnalyzePerformance(f.graph, empty);
  EXPECT_EQ(report.activities[0].instances, 0);
  EXPECT_EQ(report.activities[0].min_duration, 0);
  for (const EdgePerformance& perf : report.edges) {
    EXPECT_EQ(perf.traversals, 0);
    EXPECT_DOUBLE_EQ(perf.probability, 0.0);
  }
}

TEST(PerformanceTest, EndToEndWithAgentEngine) {
  // Durations flow from the agent simulation into the report.
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "W"}, {"W", "E"}});
  ProcessDefinition def(g);
  EngineOptions options;
  options.num_agents = 1;
  options.min_duration = 5;
  options.max_duration = 9;
  Engine engine(&def, options);
  auto log = engine.GenerateLog(100, 13);
  ASSERT_TRUE(log.ok());
  auto mined = ProcessMiner().Mine(*log);
  ASSERT_TRUE(mined.ok());
  PerformanceReport report = AnalyzePerformance(*mined, *log);
  NodeId w = *mined->FindActivity("W");
  const ActivityPerformance& perf =
      report.activities[static_cast<size_t>(w)];
  EXPECT_GE(perf.min_duration, 5);
  EXPECT_LE(perf.max_duration, 9);
  EXPECT_GT(perf.mean_duration, 5.0);
  EXPECT_LT(perf.mean_duration, 9.0);
}

}  // namespace
}  // namespace procmine
