#include "mine/conformance.h"

#include <gtest/gtest.h>

namespace procmine {
namespace {

// The paper's Figure 1 graph, with ids matching the compact-log dictionary
// order of "ABCDE" logs (A=0, B=1, C=2, D=3, E=4).
ProcessGraph Figure1() {
  DirectedGraph g(5);
  g.AddEdge(0, 1);  // A->B
  g.AddEdge(0, 2);  // A->C
  g.AddEdge(1, 4);  // B->E
  g.AddEdge(2, 3);  // C->D
  g.AddEdge(2, 4);  // C->E
  g.AddEdge(3, 4);  // D->E
  return ProcessGraph(std::move(g), {"A", "B", "C", "D", "E"});
}

Execution Seq(const std::vector<ActivityId>& ids) {
  return Execution::FromSequence("test", ids);
}

TEST(ConformanceTest, PaperExample4Consistent) {
  // "The execution ACBE is consistent with the graph in Figure 1."
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  EXPECT_TRUE(checker.CheckExecution(Seq({0, 2, 1, 4})).ok());  // ACBE
}

TEST(ConformanceTest, PaperExample4Inconsistent) {
  // "...but ADBE is not": D is not reachable from A without C.
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  Status st = checker.CheckExecution(Seq({0, 3, 1, 4}));  // ADBE
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("reachable"), std::string::npos);
}

TEST(ConformanceTest, FullExecutionConsistent) {
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  EXPECT_TRUE(checker.CheckExecution(Seq({0, 1, 2, 3, 4})).ok());  // ABCDE
  EXPECT_TRUE(checker.CheckExecution(Seq({0, 2, 3, 1, 4})).ok());  // ACDBE
}

TEST(ConformanceTest, DependencyViolationDetected) {
  // D before C violates C->D.
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  Status st = checker.CheckExecution(Seq({0, 3, 2, 4}));  // ADCE
  EXPECT_FALSE(st.ok());
}

TEST(ConformanceTest, WrongFirstActivityRejected) {
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  Status st = checker.CheckExecution(Seq({1, 4}));  // BE
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("initiating"), std::string::npos);
}

TEST(ConformanceTest, WrongLastActivityRejected) {
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  Status st = checker.CheckExecution(Seq({0, 1}));  // AB
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("terminating"), std::string::npos);
}

TEST(ConformanceTest, UnknownActivityIdRejected) {
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  EXPECT_FALSE(checker.CheckExecution(Seq({0, 17, 4})).ok());
}

TEST(ConformanceTest, EmptyExecutionRejected) {
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  EXPECT_FALSE(checker.CheckExecution(Execution("empty")).ok());
}

TEST(ConformanceTest, OverlappingParallelActivitiesConsistent) {
  // B and C overlap in time: no ordering between them is claimed, so no
  // dependency can be violated.
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  Execution exec("par");
  exec.Append({0, 0, 0});   // A
  exec.Append({1, 1, 3});   // B [1,3]
  exec.Append({2, 2, 4});   // C [2,4] overlaps B
  exec.Append({4, 5, 5});   // E
  EXPECT_TRUE(checker.CheckExecution(exec).ok());
}

TEST(ConformanceTest, LogLevelReportConformal) {
  // Figure 1 with a log it generates.
  ProcessGraph g = Figure1();
  ConformanceChecker checker(&g);
  EventLog log = EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  ConformanceReport report = checker.CheckLog(log);
  EXPECT_TRUE(report.conformal()) << report.Summary(log.dictionary());
}

TEST(ConformanceTest, MissingDependencyReported) {
  // Log where C depends on B, but the graph has no B->C path.
  DirectedGraph dg(3);
  dg.AddEdge(0, 1);  // A->B
  dg.AddEdge(0, 2);  // A->C (no B->C)
  ProcessGraph g(std::move(dg), {"A", "B", "C"});
  // In this log C always follows B => C depends on B.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  ConformanceChecker checker(&g);
  ConformanceReport report = checker.CheckLog(log);
  EXPECT_FALSE(report.dependency_complete);
  ASSERT_FALSE(report.missing_dependencies.empty());
  EXPECT_EQ(report.missing_dependencies[0], (Edge{1, 2}));
  EXPECT_FALSE(report.conformal());
}

TEST(ConformanceTest, SpuriousPathReported) {
  // B and C appear in both orders (independent), but the graph chains them.
  DirectedGraph dg(4);
  dg.AddEdge(0, 1);  // A->B
  dg.AddEdge(1, 2);  // B->C  (spurious)
  dg.AddEdge(2, 3);  // C->E
  ProcessGraph g(std::move(dg), {"A", "B", "C", "E"});
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACBE"});
  ConformanceChecker checker(&g);
  ConformanceReport report = checker.CheckLog(log);
  EXPECT_FALSE(report.irredundant);
  EXPECT_FALSE(report.conformal());
}

TEST(ConformanceTest, ExecutionIncompletenessReported) {
  // Example 5's second-graph phenomenon: a dependency graph that cannot
  // replay ADCE. Graph: A->B, B->C, B->D, C->E, D->E.
  // Dictionary order of log {ADCE, ABCDE}: A=0, D=1, C=2, E=3, B=4. Build
  // the graph in that id space: A->B, B->C, B->D, C->E, D->E.
  DirectedGraph dg2(5);
  dg2.AddEdge(0, 4);  // A->B
  dg2.AddEdge(4, 2);  // B->C
  dg2.AddEdge(4, 1);  // B->D
  dg2.AddEdge(2, 3);  // C->E
  dg2.AddEdge(1, 3);  // D->E
  ProcessGraph g(std::move(dg2), {"A", "D", "C", "E", "B"});
  EventLog log = EventLog::FromCompactStrings({"ADCE", "ABCDE"});
  ConformanceChecker checker(&g);
  ConformanceReport report = checker.CheckLog(log);
  EXPECT_FALSE(report.execution_complete);
  ASSERT_EQ(report.inconsistent_executions.size(), 1u);
  EXPECT_EQ(report.inconsistent_executions[0].first, "exec_0");  // ADCE
}

TEST(ConformanceTest, SummaryMentionsViolations) {
  DirectedGraph dg(3);
  dg.AddEdge(0, 1);
  dg.AddEdge(0, 2);
  ProcessGraph g(std::move(dg), {"A", "B", "C"});
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  ConformanceChecker checker(&g);
  ConformanceReport report = checker.CheckLog(log);
  std::string summary = report.Summary(log.dictionary());
  EXPECT_NE(summary.find("conformal: no"), std::string::npos);
  EXPECT_NE(summary.find("missing path B -> C"), std::string::npos);
}

TEST(ConformanceTest, CyclicGraphExecutionCheck) {
  // S -> A <-> B -> E (cycle between A and B): repeats are fine as long as
  // no dependency is violated.
  DirectedGraph dg(4);
  dg.AddEdge(0, 1);  // S->A
  dg.AddEdge(1, 2);  // A->B
  dg.AddEdge(2, 1);  // B->A
  dg.AddEdge(2, 3);  // B->E
  ProcessGraph g(std::move(dg), {"S", "A", "B", "E"});
  ConformanceChecker checker(&g);
  EXPECT_TRUE(checker.CheckExecution(Seq({0, 1, 2, 1, 2, 3})).ok());
}

}  // namespace
}  // namespace procmine
