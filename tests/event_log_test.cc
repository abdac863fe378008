#include "log/event_log.h"

#include <gtest/gtest.h>

#include "output_of.h"

namespace procmine {
namespace {

TEST(EventLogTest, FromCompactStrings) {
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACDBE"});
  EXPECT_EQ(log.num_executions(), 2u);
  EXPECT_EQ(log.num_activities(), 5);  // A B C E D
  EXPECT_EQ(log.dictionary().Name(0), "A");
  EXPECT_EQ(log.execution(0).size(), 4u);
  EXPECT_EQ(log.execution(1).size(), 5u);
}

TEST(EventLogTest, FromCompactStringsSharesDictionary) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  EXPECT_EQ(log.num_activities(), 2);
  // Same ids across executions.
  EXPECT_EQ(log.execution(0).Sequence()[0], log.execution(1).Sequence()[1]);
}

TEST(EventLogTest, FromSequencesWithLongNames) {
  EventLog log = EventLog::FromSequences(
      {{"Start", "Upload", "End"}, {"Start", "End"}});
  EXPECT_EQ(log.num_activities(), 3);
  EXPECT_EQ(log.execution(1).Sequence(),
            (std::vector<ActivityId>{0, 2}));
}

TEST(EventLogTest, TotalInstances) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "AB"});
  EXPECT_EQ(log.TotalInstances(), 5);
}

TEST(EventLogTest, FromEventsPairsStartEnd) {
  std::vector<Event> events = {
      {"case1", "A", EventType::kStart, 0, {}},
      {"case1", "A", EventType::kEnd, 1, {10}},
      {"case1", "B", EventType::kStart, 2, {}},
      {"case1", "B", EventType::kEnd, 3, {20}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->num_executions(), 1u);
  const Execution& exec = log->execution(0);
  ASSERT_EQ(exec.size(), 2u);
  EXPECT_EQ(exec[0].start, 0);
  EXPECT_EQ(exec[0].end, 1);
  EXPECT_EQ(OutputOf(exec, 0), (std::vector<int64_t>{10}));
  EXPECT_EQ(OutputOf(exec, 1), (std::vector<int64_t>{20}));
}

TEST(EventLogTest, FromEventsGroupsByInstance) {
  std::vector<Event> events = {
      {"c2", "A", EventType::kStart, 0, {}},
      {"c1", "A", EventType::kStart, 0, {}},
      {"c1", "A", EventType::kEnd, 1, {}},
      {"c2", "A", EventType::kEnd, 1, {}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 2u);
}

TEST(EventLogTest, FromEventsHandlesInterleavedActivities) {
  // A and B overlap: A [0,5], B [2,3].
  std::vector<Event> events = {
      {"c", "A", EventType::kStart, 0, {}},
      {"c", "B", EventType::kStart, 2, {}},
      {"c", "B", EventType::kEnd, 3, {}},
      {"c", "A", EventType::kEnd, 5, {}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  const Execution& exec = log->execution(0);
  ASSERT_EQ(exec.size(), 2u);
  // Sorted by start time: A first.
  EXPECT_EQ(exec[0].start, 0);
  EXPECT_EQ(exec[0].end, 5);
  EXPECT_FALSE(exec.TerminatesBefore(0, 1));
}

TEST(EventLogTest, FromEventsPairsRepeatedActivityFifo) {
  // Cyclic process: B runs twice.
  std::vector<Event> events = {
      {"c", "B", EventType::kStart, 0, {}},
      {"c", "B", EventType::kEnd, 1, {1}},
      {"c", "B", EventType::kStart, 2, {}},
      {"c", "B", EventType::kEnd, 3, {2}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  const Execution& exec = log->execution(0);
  ASSERT_EQ(exec.size(), 2u);
  EXPECT_EQ(exec[0].start, 0);
  EXPECT_EQ(exec[0].end, 1);
  EXPECT_EQ(OutputOf(exec, 0), (std::vector<int64_t>{1}));
  EXPECT_EQ(exec[1].start, 2);
  EXPECT_EQ(OutputOf(exec, 1), (std::vector<int64_t>{2}));
}

TEST(EventLogTest, FromEventsRejectsEndWithoutStart) {
  std::vector<Event> events = {{"c", "A", EventType::kEnd, 1, {}}};
  auto log = EventLog::FromEvents(events);
  EXPECT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsInvalidArgument());
}

TEST(EventLogTest, FromEventsRejectsStartWithoutEnd) {
  std::vector<Event> events = {{"c", "A", EventType::kStart, 1, {}}};
  auto log = EventLog::FromEvents(events);
  EXPECT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsInvalidArgument());
}

TEST(EventLogTest, FromEventsInstantaneousSameTimestamp) {
  std::vector<Event> events = {
      {"c", "A", EventType::kStart, 5, {}},
      {"c", "A", EventType::kEnd, 5, {}},
  };
  auto log = EventLog::FromEvents(events);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->execution(0)[0].start, 5);
  EXPECT_EQ(log->execution(0)[0].end, 5);
}

TEST(EventLogTest, ToEventsRoundTripsThroughFromEvents) {
  EventLog original = EventLog::FromCompactStrings({"ABC", "ACB"});
  std::vector<Event> events = original.ToEvents();
  EXPECT_EQ(events.size(), 12u);  // 6 instances * 2
  auto rebuilt = EventLog::FromEvents(events);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_EQ(rebuilt->num_executions(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    // Executions may be reordered by instance name; match by name.
    for (size_t j = 0; j < 2; ++j) {
      if (rebuilt->execution(j).name() == original.execution(i).name()) {
        // Compare in name space (dictionaries may order ids differently).
        const Execution& a = original.execution(i);
        const Execution& b = rebuilt->execution(j);
        ASSERT_EQ(a.size(), b.size());
        for (size_t k = 0; k < a.size(); ++k) {
          EXPECT_EQ(original.dictionary().Name(a[k].activity),
                    rebuilt->dictionary().Name(b[k].activity));
        }
      }
    }
  }
}

}  // namespace
}  // namespace procmine
