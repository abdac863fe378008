// Mining traces from the recorded provenance: the paper explains its
// algorithms step by step (Example 6 / Figure 3, Example 7 / Figure 4), and
// NarrateMining / ExplainEdge render that account from the
// ProvenanceRecorder the one mining pipeline fills.

#include <gtest/gtest.h>

#include "mine/miner.h"
#include "mine/provenance.h"

namespace procmine {
namespace {

// Mines `log` through ProcessMiner with a recorder attached.
ProvenanceRecorder Record(const EventLog& log, MinerOptions options = {}) {
  ProvenanceRecorder recorder;
  options.provenance = &recorder;
  auto model = ProcessMiner(options).Mine(log);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return recorder;
}

std::vector<Edge> WithReason(const ProvenanceRecorder& recorder,
                             DropReason reason) {
  std::vector<Edge> out;
  for (const EdgeProvenance& p : recorder.Edges()) {
    if (p.reason == reason) out.push_back(p.edge);
  }
  return out;
}

std::string Explain(const ProvenanceRecorder& recorder, const EventLog& log,
                    std::string_view from, std::string_view to) {
  auto why = ExplainEdge(recorder, log, from, to);
  EXPECT_TRUE(why.ok()) << why.status().ToString();
  return why.ok() ? *why : "";
}

TEST(TraceTest, MatchesUntracedMiner) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  ProvenanceRecorder recorder =
      Record(log, {.algorithm = MinerAlgorithm::kGeneralDag});
  auto plain =
      ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(log);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(WithReason(recorder, DropReason::kKept), plain->graph().Edges());
}

TEST(TraceTest, Example6NarrativeTwoCycles) {
  // Example 6: the dashed edges removed at step 3 are the B/C and B/D
  // pairs. Every execution holds every activity, so kAuto runs Algorithm 1.
  EventLog log = EventLog::FromCompactStrings({"ABCDE", "ACDBE", "ACBDE"});
  ProvenanceRecorder recorder = Record(log);
  EXPECT_EQ(recorder.algorithm(), MinerAlgorithm::kSpecialDag);
  ActivityId b = *log.dictionary().Find("B");
  ActivityId c = *log.dictionary().Find("C");
  ActivityId d = *log.dictionary().Find("D");
  EXPECT_EQ(WithReason(recorder, DropReason::kTwoCycle),
            (std::vector<Edge>{{b, c}, {b, d}, {c, b}, {d, b}}));
  EXPECT_TRUE(WithReason(recorder, DropReason::kIntraScc).empty());
  std::string narration = NarrateMining(recorder);
  EXPECT_NE(narration.find("Algorithm 1"), std::string::npos) << narration;
  EXPECT_NE(narration.find("step 3: 2 activity pairs observed in both orders "
                           "(independent): {B, C} {B, D}\n"),
            std::string::npos)
      << narration;
}

TEST(TraceTest, Example7NarrativeScc) {
  // Example 7: "There is one strongly connected component, consisting of
  // vertices C, D, E."
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  ProvenanceRecorder recorder = Record(log);
  EXPECT_TRUE(WithReason(recorder, DropReason::kTwoCycle).empty());
  std::string narration = NarrateMining(recorder);
  EXPECT_NE(narration.find("step 3: 0 activity pairs"), std::string::npos)
      << narration;
  EXPECT_NE(narration.find("step 4: 1 strongly connected components "
                           "dissolved: {C, D, E}\n"),
            std::string::npos)
      << narration;
}

TEST(TraceTest, NarrationMentionsEverySection) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  std::string narration = NarrateMining(Record(log));
  EXPECT_NE(narration.find("Algorithm 2"), std::string::npos);
  EXPECT_NE(narration.find("step 2"), std::string::npos);
  EXPECT_NE(narration.find("noise threshold"), std::string::npos);
  EXPECT_NE(narration.find("step 3"), std::string::npos);
  EXPECT_NE(narration.find("step 4"), std::string::npos);
  EXPECT_NE(narration.find("{C, D, E}"), std::string::npos);
  EXPECT_NE(narration.find("dependency graph"), std::string::npos);
  EXPECT_NE(narration.find("steps 5-6"), std::string::npos);
}

TEST(TraceTest, ExplainKeptEdge) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AC"});
  std::string why = Explain(Record(log), log, "A", "C");
  EXPECT_NE(why.find("is in the model"), std::string::npos) << why;
  EXPECT_NE(why.find("observed in 2 executions"), std::string::npos) << why;
  EXPECT_NE(why.find("first in " + log.execution(0).name() + ", last in " +
                     log.execution(1).name()),
            std::string::npos)
      << why;
}

TEST(TraceTest, ExplainNeverObserved) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  ProvenanceRecorder recorder = Record(log);
  std::string why = Explain(recorder, log, "C", "A");
  EXPECT_NE(why.find("never observed"), std::string::npos) << why;
  auto unknown = ExplainEdge(recorder, log, "A", "Z");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(TraceTest, ExplainTwoCycleDrop) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  std::string why = Explain(Record(log), log, "A", "B");
  EXPECT_NE(why.find("step 3"), std::string::npos) << why;
  EXPECT_NE(why.find("independent"), std::string::npos) << why;
}

TEST(TraceTest, ExplainSccDrop) {
  EventLog log =
      EventLog::FromCompactStrings({"ABCF", "ACDF", "ADEF", "AECF"});
  std::string why = Explain(Record(log), log, "C", "D");
  EXPECT_NE(why.find("step 4"), std::string::npos) << why;
  EXPECT_NE(why.find("strongly connected"), std::string::npos) << why;
}

TEST(TraceTest, ExplainUnmarkedDrop) {
  // A->C exists in the dependency graph but B is always between. The step
  // that drops it is the resolved algorithm's reduction.
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  std::string general =
      Explain(Record(log, {.algorithm = MinerAlgorithm::kGeneralDag}), log,
              "A", "C");
  EXPECT_NE(general.find("steps 5-6 (transitive_reduction)"),
            std::string::npos)
      << general;
  EXPECT_NE(general.find("longer path"), std::string::npos) << general;
  std::string special = Explain(Record(log), log, "A", "C");
  EXPECT_NE(special.find("step 4 (transitive_reduction)"), std::string::npos)
      << special;
}

TEST(TraceTest, ExplainThresholdDrop) {
  std::vector<std::string> execs(9, "ABC");
  execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.noise_threshold = 2;
  ProvenanceRecorder recorder = Record(log, options);
  std::string why = Explain(recorder, log, "C", "B");
  EXPECT_NE(why.find("noise threshold"), std::string::npos) << why;
  EXPECT_EQ(WithReason(recorder, DropReason::kBelowThreshold).size(), 1u);
}

TEST(TraceTest, CyclicLogIsExplainedInOccurrenceLabels) {
  // Algorithm 3 records in the occurrence-labelled space, so a log with
  // repeated activities is narrated and explained with no special case.
  EventLog log = EventLog::FromCompactStrings({"ABAB", "AB"});
  ProvenanceRecorder recorder = Record(log);
  EXPECT_EQ(recorder.algorithm(), MinerAlgorithm::kCyclic);
  std::string narration = NarrateMining(recorder);
  EXPECT_NE(narration.find("Algorithm 3"), std::string::npos) << narration;
  std::string why = Explain(recorder, log, "A#1", "B#1");
  EXPECT_NE(why.find("is in the model"), std::string::npos) << why;
}

TEST(TraceTest, RejectsEmptyLog) {
  ProvenanceRecorder recorder;
  EXPECT_FALSE(ProcessMiner({.provenance = &recorder}).Mine(EventLog()).ok());
}

}  // namespace
}  // namespace procmine
