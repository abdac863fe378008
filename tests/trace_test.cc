#include "mine/trace.h"

#include <gtest/gtest.h>

#include "mine/miner.h"
#include "mine/metrics.h"

namespace procmine {
namespace {

TEST(TraceTest, MatchesUntracedMiner) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  auto plain =
      ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(log);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(trace->result.graph() == plain->graph());
}

TEST(TraceTest, Example6NarrativeTwoCycles) {
  // Example 6: the dashed edges removed at step 3 are the B/C and B/D
  // pairs.
  EventLog log = EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  ActivityId d = *log.dictionary().Find("D");
  ASSERT_EQ(trace->two_cycle_pairs.size(), 2u);
  for (const Edge& e : trace->two_cycle_pairs) {
    bool bc = (e.from == std::min(b, c) && e.to == std::max(b, c));
    bool bd = (e.from == std::min(b, d) && e.to == std::max(b, d));
    EXPECT_TRUE(bc || bd);
  }
  EXPECT_TRUE(trace->scc_groups.empty());
}

TEST(TraceTest, Example7NarrativeScc) {
  // Example 7: "There is one strongly connected component, consisting of
  // vertices C, D, E."
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace->two_cycle_pairs.empty());
  ASSERT_EQ(trace->scc_groups.size(), 1u);
  std::vector<std::string> names;
  for (ActivityId a : trace->scc_groups[0]) {
    names.push_back(log.dictionary().Name(a));
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"C", "D", "E"}));
}

TEST(TraceTest, NarrationMentionsEverySection) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  std::string narration = trace->Narrate(log.dictionary());
  EXPECT_NE(narration.find("step 2"), std::string::npos);
  EXPECT_NE(narration.find("step 3"), std::string::npos);
  EXPECT_NE(narration.find("step 4"), std::string::npos);
  EXPECT_NE(narration.find("{C, D, E}"), std::string::npos);
  EXPECT_NE(narration.find("steps 5-6"), std::string::npos);
}

TEST(TraceTest, ExplainKeptEdge) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId a = *log.dictionary().Find("A");
  ActivityId c = *log.dictionary().Find("C");
  std::string why = trace->ExplainEdge(log.dictionary(), a, c);
  EXPECT_NE(why.find("is in the model"), std::string::npos);
  EXPECT_NE(why.find("observed in 2 executions"), std::string::npos);
}

TEST(TraceTest, ExplainNeverObserved) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId c = *log.dictionary().Find("C");
  ActivityId a = *log.dictionary().Find("A");
  std::string why = trace->ExplainEdge(log.dictionary(), c, a);
  EXPECT_NE(why.find("never observed"), std::string::npos);
}

TEST(TraceTest, ExplainTwoCycleDrop) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  std::string why = trace->ExplainEdge(log.dictionary(), a, b);
  EXPECT_NE(why.find("step 3"), std::string::npos);
  EXPECT_NE(why.find("independent"), std::string::npos);
}

TEST(TraceTest, ExplainSccDrop) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId c = *log.dictionary().Find("C");
  ActivityId d = *log.dictionary().Find("D");
  std::string why = trace->ExplainEdge(log.dictionary(), c, d);
  EXPECT_NE(why.find("step 4"), std::string::npos);
  EXPECT_NE(why.find("strongly connected"), std::string::npos);
}

TEST(TraceTest, ExplainUnmarkedDrop) {
  // A->C exists in the dependency graph but B is always between.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ActivityId a = *log.dictionary().Find("A");
  ActivityId c = *log.dictionary().Find("C");
  std::string why = trace->ExplainEdge(log.dictionary(), a, c);
  EXPECT_NE(why.find("step 6"), std::string::npos);
  EXPECT_NE(why.find("longer path"), std::string::npos);
}

TEST(TraceTest, ExplainThresholdDrop) {
  std::vector<std::string> execs(9, "ABC");
  execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.noise_threshold = 2;
  auto trace = TraceGeneralDagMining(log, options);
  ASSERT_TRUE(trace.ok());
  ActivityId c = *log.dictionary().Find("C");
  ActivityId b = *log.dictionary().Find("B");
  std::string why = trace->ExplainEdge(log.dictionary(), c, b);
  EXPECT_NE(why.find("noise threshold"), std::string::npos);
  EXPECT_EQ(trace->below_threshold.size(), 1u);
}

TEST(TraceTest, MarksRecordPerExecutionRequirements) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  auto trace = TraceGeneralDagMining(log);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->marks.size(), 2u);
  // The AC execution marks the direct A->C edge.
  ActivityId a = *log.dictionary().Find("A");
  ActivityId c = *log.dictionary().Find("C");
  EXPECT_EQ(trace->marks[1].marked,
            (std::vector<Edge>{Edge{a, c}}));
}

TEST(TraceTest, RejectsRepeatsAndEmpty) {
  EXPECT_FALSE(TraceGeneralDagMining(EventLog()).ok());
  EventLog cyclic = EventLog::FromCompactStrings({"ABAB"});
  EXPECT_FALSE(TraceGeneralDagMining(cyclic).ok());
}

}  // namespace
}  // namespace procmine
