#include "mine/cyclic_miner.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "mine/metrics.h"
#include "mine/miner.h"

namespace procmine {
namespace {

// Algorithm 3 through the facade.
Result<ProcessGraph> MineCyclic(const EventLog& log) {
  return ProcessMiner({.algorithm = MinerAlgorithm::kCyclic}).Mine(log);
}

TEST(CyclicMinerTest, PaperExample8) {
  // Log {ABDCE, ABDCBCE, ABCBDCE, ADE} (Example 8). The merged graph shows
  // the B <-> C cycle.
  EventLog log = EventLog::FromCompactStrings(
      {"ABDCE", "ABDCBCE", "ABCBDCE", "ADE"});
  auto mined = MineCyclic(log);
  ASSERT_TRUE(mined.ok());

  ProcessGraph expected = ProcessGraph::FromNamedEdges({{"A", "B"},
                                                        {"A", "D"},
                                                        {"B", "C"},
                                                        {"B", "D"},
                                                        {"C", "B"},
                                                        {"C", "E"},
                                                        {"D", "C"},
                                                        {"D", "E"}});
  GraphComparison cmp = CompareByName(expected, *mined);
  EXPECT_TRUE(cmp.ExactMatch())
      << "missing=" << cmp.missing_edges << " spurious=" << cmp.spurious_edges
      << "\nmined:\n"
      << mined->ToDot();

  // The paper's headline: the B/C cycle is exposed.
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  EXPECT_TRUE(mined->graph().HasEdge(b, c));
  EXPECT_TRUE(mined->graph().HasEdge(c, b));
  EXPECT_TRUE(HasCycle(mined->graph()));
}

TEST(CyclicMinerTest, LabelOccurrencesNumbersRepeats) {
  EventLog log = EventLog::FromCompactStrings({"ABAB"});
  std::vector<ActivityId> to_base;
  EventLog labeled = LabelOccurrences(log, &to_base);
  ASSERT_EQ(labeled.num_executions(), 1u);
  const Execution& exec = labeled.execution(0);
  std::vector<std::string> names;
  for (ActivityId a : exec.Sequence()) {
    names.push_back(labeled.dictionary().Name(a));
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"A#1", "B#1", "A#2", "B#2"}));
  // Mapping back to base ids.
  ActivityId a = *log.dictionary().Find("A");
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_EQ(to_base[static_cast<size_t>(*labeled.dictionary().Find("A#1"))],
            a);
  EXPECT_EQ(to_base[static_cast<size_t>(*labeled.dictionary().Find("A#2"))],
            a);
  EXPECT_EQ(to_base[static_cast<size_t>(*labeled.dictionary().Find("B#2"))],
            b);
}

TEST(CyclicMinerTest, LabelOccurrencesSharesLabelsAcrossExecutions) {
  EventLog log = EventLog::FromCompactStrings({"AA", "AAA"});
  EventLog labeled = LabelOccurrences(log, nullptr);
  // A#1 and A#2 shared; A#3 appears only in the second execution.
  EXPECT_EQ(labeled.num_activities(), 3);
}

TEST(CyclicMinerTest, AcyclicLogMatchesGeneralMiner) {
  // Without repeats, labeling is the identity (modulo "#1" suffixes), so the
  // cyclic miner must produce the same graph as Algorithm 2.
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  auto mined = MineCyclic(log);
  ASSERT_TRUE(mined.ok());
  ProcessGraph expected = ProcessGraph::FromNamedEdges({{"A", "B"},
                                                        {"B", "C"},
                                                        {"A", "C"},
                                                        {"A", "D"},
                                                        {"A", "E"},
                                                        {"C", "F"},
                                                        {"D", "F"},
                                                        {"E", "F"}});
  EXPECT_TRUE(CompareByName(expected, *mined).ExactMatch());
}

TEST(CyclicMinerTest, SimpleSelfRepeatProducesNoSelfLoop) {
  // A B B C: instances B#1, B#2; the merge never creates self loops.
  EventLog log = EventLog::FromCompactStrings({"ABBC", "ABBC"});
  auto mined = MineCyclic(log);
  ASSERT_TRUE(mined.ok());
  ActivityId b = *log.dictionary().Find("B");
  EXPECT_FALSE(mined->graph().HasEdge(b, b));
}

TEST(CyclicMinerTest, LoopWithVaryingIterationCounts) {
  // Process S -> W -> E with W repeating 1-3 times.
  EventLog log = EventLog::FromCompactStrings(
      {"SWE", "SWWE", "SWWWE", "SWE", "SWWE"});
  auto mined = MineCyclic(log);
  ASSERT_TRUE(mined.ok());
  ActivityId s = *log.dictionary().Find("S");
  ActivityId w = *log.dictionary().Find("W");
  ActivityId e = *log.dictionary().Find("E");
  EXPECT_TRUE(mined->graph().HasEdge(s, w));
  EXPECT_TRUE(mined->graph().HasEdge(w, e));
  EXPECT_FALSE(mined->graph().HasEdge(w, w));  // merge drops intra-activity
  EXPECT_FALSE(mined->graph().HasEdge(e, s));
}

TEST(CyclicMinerTest, RejectsEmptyLog) {
  EventLog log;
  EXPECT_FALSE(MineCyclic(log).ok());
}

TEST(CyclicMinerTest, NoiseThresholdForwarded) {
  std::vector<std::string> execs(9, "ABC");
  execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kCyclic;
  options.noise_threshold = 2;
  auto mined = ProcessMiner(options).Mine(log);
  ASSERT_TRUE(mined.ok());
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  EXPECT_TRUE(mined->graph().HasEdge(b, c));
  EXPECT_FALSE(mined->graph().HasEdge(c, b));
}

}  // namespace
}  // namespace procmine
