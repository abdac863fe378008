#include "log/execution.h"

#include <gtest/gtest.h>

#include "output_of.h"

namespace procmine {
namespace {

TEST(ExecutionTest, FromSequenceAssignsInstantTimestamps) {
  Execution exec = Execution::FromSequence("e1", {0, 1, 2});
  ASSERT_EQ(exec.size(), 3u);
  EXPECT_EQ(exec.name(), "e1");
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(exec[i].start, static_cast<int64_t>(i));
    EXPECT_EQ(exec[i].end, static_cast<int64_t>(i));
  }
}

TEST(ExecutionTest, SequenceRoundTrips) {
  std::vector<ActivityId> seq = {3, 1, 4, 1, 5};
  Execution exec = Execution::FromSequence("e", seq);
  EXPECT_EQ(exec.Sequence(), seq);
}

TEST(ExecutionTest, TerminatesBeforeOnSequence) {
  Execution exec = Execution::FromSequence("e", {0, 1, 2});
  EXPECT_TRUE(exec.TerminatesBefore(0, 1));
  EXPECT_TRUE(exec.TerminatesBefore(0, 2));
  EXPECT_FALSE(exec.TerminatesBefore(1, 0));
}

TEST(ExecutionTest, OverlappingIntervalsDoNotTerminateBefore) {
  Execution exec("e");
  exec.Append({0, 0, 10});
  exec.Append({1, 5, 15});  // overlaps instance 0
  exec.Append({2, 20, 25});
  EXPECT_FALSE(exec.TerminatesBefore(0, 1));
  EXPECT_FALSE(exec.TerminatesBefore(1, 0));
  EXPECT_TRUE(exec.TerminatesBefore(0, 2));
  EXPECT_TRUE(exec.TerminatesBefore(1, 2));
}

TEST(ExecutionTest, TouchingIntervalsAreNotStrictlyBefore) {
  Execution exec("e");
  exec.Append({0, 0, 5});
  exec.Append({1, 5, 9});  // starts exactly when 0 ends
  EXPECT_FALSE(exec.TerminatesBefore(0, 1));
}

TEST(ExecutionTest, ContainsAndCount) {
  Execution exec = Execution::FromSequence("e", {0, 1, 0, 2});
  EXPECT_TRUE(exec.Contains(0));
  EXPECT_TRUE(exec.Contains(2));
  EXPECT_FALSE(exec.Contains(5));
  EXPECT_EQ(exec.CountOf(0), 2);
  EXPECT_EQ(exec.CountOf(1), 1);
  EXPECT_EQ(exec.CountOf(7), 0);
}

TEST(ExecutionTest, EmptyExecution) {
  Execution exec("empty");
  EXPECT_TRUE(exec.empty());
  EXPECT_EQ(exec.size(), 0u);
  EXPECT_TRUE(exec.Sequence().empty());
}

TEST(ExecutionTest, OutputsPreserved) {
  Execution exec("e");
  exec.Append({0, 0, 1}, std::vector<int64_t>{42, 7});
  EXPECT_EQ(OutputOf(exec, 0), (std::vector<int64_t>{42, 7}));
}

TEST(ExecutionTest, OutputsAreSparse) {
  Execution exec("e");
  exec.Append({0, 0, 1});
  exec.Append({1, 2, 3}, std::vector<int64_t>{5});
  exec.Append({2, 4, 5}, std::vector<int64_t>{});  // records none
  exec.Append({0, 6, 7}, std::vector<int64_t>{-1, 8});
  EXPECT_TRUE(exec.output(0).empty());
  EXPECT_EQ(OutputOf(exec, 1), (std::vector<int64_t>{5}));
  EXPECT_TRUE(exec.output(2).empty());
  EXPECT_EQ(OutputOf(exec, 3), (std::vector<int64_t>{-1, 8}));
  ASSERT_EQ(exec.outputs().size(), 2u);
  EXPECT_EQ(exec.outputs()[0].instance, 1u);
  EXPECT_EQ(exec.outputs()[1].instance, 3u);
  EXPECT_TRUE(Execution::FromSequence("s", {0, 1}).outputs().empty());
}

TEST(ExecutionTest, RelabelKeepsTimesAndOutputs) {
  Execution exec("e");
  exec.Append({0, 0, 1}, std::vector<int64_t>{9});
  exec.Append({1, 2, 3});
  exec.Relabel(0, 4);
  EXPECT_EQ(exec[0].activity, 4);
  EXPECT_EQ(exec[0].start, 0);
  EXPECT_EQ(exec[0].end, 1);
  EXPECT_EQ(OutputOf(exec, 0), (std::vector<int64_t>{9}));
  EXPECT_TRUE(exec.output(1).empty());
}

TEST(ExecutionDeathTest, AppendOutOfOrderStartChecks) {
  Execution exec("e");
  exec.Append({0, 10, 11});
  EXPECT_DEATH(exec.Append({1, 5, 6}), "check failed");
}

TEST(ExecutionDeathTest, NegativeDurationChecks) {
  Execution exec("e");
  EXPECT_DEATH(exec.Append({0, 10, 5}), "check failed");
}

}  // namespace
}  // namespace procmine
