#include "log/validate.h"

#include <gtest/gtest.h>

namespace procmine {
namespace {

TEST(ValidateEventsTest, CleanLogHasNoIssues) {
  std::vector<Event> events = {
      {"c", "A", EventType::kStart, 0, {}},
      {"c", "A", EventType::kEnd, 1, {}},
  };
  EXPECT_TRUE(ValidateEvents(events).empty());
}

TEST(ValidateEventsTest, DetectsEndWithoutStart) {
  std::vector<Event> events = {{"c", "A", EventType::kEnd, 1, {}}};
  auto issues = ValidateEvents(events);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LogIssue::Kind::kEndWithoutStart);
  EXPECT_EQ(issues[0].process_instance, "c");
}

TEST(ValidateEventsTest, DetectsStartWithoutEnd) {
  std::vector<Event> events = {
      {"c", "A", EventType::kStart, 0, {}},
      {"c", "A", EventType::kStart, 2, {}},
      {"c", "A", EventType::kEnd, 3, {}},
  };
  auto issues = ValidateEvents(events);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LogIssue::Kind::kStartWithoutEnd);
  EXPECT_NE(issues[0].detail.find("1 unmatched"), std::string::npos);
}

TEST(ValidateEventsTest, IssuesScopedPerInstance) {
  std::vector<Event> events = {
      {"c1", "A", EventType::kStart, 0, {}},
      {"c2", "A", EventType::kEnd, 1, {}},
  };
  auto issues = ValidateEvents(events);
  EXPECT_EQ(issues.size(), 2u);  // c1 unmatched START, c2 unmatched END
}

TEST(ValidateLogTest, CleanSequenceLog) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  EXPECT_TRUE(ValidateLog(log).empty());
}

TEST(ValidateLogTest, DetectsSimultaneousStarts) {
  Execution exec("c");
  exec.Append({0, 5, 6});
  exec.Append({1, 5, 7});
  EventLog log;
  log.dictionary().Intern("A");
  log.dictionary().Intern("B");
  log.AddExecution(std::move(exec));
  auto issues = ValidateLog(log);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LogIssue::Kind::kSimultaneousStart);
  EXPECT_NE(issues[0].detail.find("t=5"), std::string::npos);
}

TEST(ValidateLogTest, DetectsEmptyExecution) {
  EventLog log;
  log.AddExecution(Execution("empty_case"));
  auto issues = ValidateLog(log);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].kind, LogIssue::Kind::kEmptyExecution);
}

TEST(ValidateLogTest, KindNamesAreHuman) {
  EXPECT_EQ(ToString(LogIssue::Kind::kEndWithoutStart), "END without START");
  EXPECT_EQ(ToString(LogIssue::Kind::kStartWithoutEnd), "START without END");
  EXPECT_EQ(ToString(LogIssue::Kind::kNegativeDuration), "negative duration");
  EXPECT_EQ(ToString(LogIssue::Kind::kSimultaneousStart),
            "simultaneous starts");
  EXPECT_EQ(ToString(LogIssue::Kind::kEmptyExecution), "empty execution");
}

}  // namespace
}  // namespace procmine
