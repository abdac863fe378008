#include "log/xes.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "output_of.h"

namespace procmine {
namespace {

TEST(XesTest, RoundTripInstantaneousLog) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "ACB"});
  auto back = FromXes(ToXes(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_executions(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    // Executions may reorder by name; compare sequences in name space.
    const Execution& orig = log.execution(i);
    bool matched = false;
    for (size_t j = 0; j < 2; ++j) {
      const Execution& got = back->execution(j);
      if (got.name() != orig.name()) continue;
      matched = true;
      ASSERT_EQ(got.size(), orig.size());
      for (size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(back->dictionary().Name(got[k].activity),
                  log.dictionary().Name(orig[k].activity));
        EXPECT_EQ(got[k].start, orig[k].start);
        EXPECT_EQ(got[k].end, orig[k].end);
      }
    }
    EXPECT_TRUE(matched) << orig.name();
  }
}

TEST(XesTest, RoundTripIntervalsAndOutputs) {
  EventLog log;
  log.dictionary().Intern("Review");
  Execution exec("case1");
  exec.Append({0, 2, 9}, std::vector<int64_t>{7, -3});
  log.AddExecution(std::move(exec));

  std::string xml = ToXes(log);
  EXPECT_NE(xml.find("lifecycle:transition\" value=\"start\""),
            std::string::npos);
  auto back = FromXes(xml);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const Execution& got = back->execution(0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].start, 2);
  EXPECT_EQ(got[0].end, 9);
  EXPECT_EQ(OutputOf(got, 0), (std::vector<int64_t>{7, -3}));
}

TEST(XesTest, EscapesSpecialCharacters) {
  EventLog log;
  log.dictionary().Intern("A&B <joint> \"task\"");
  Execution exec("case<1>");
  exec.Append({0, 0, 0});
  log.AddExecution(std::move(exec));
  auto back = FromXes(ToXes(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->dictionary().Name(0), "A&B <joint> \"task\"");
  EXPECT_EQ(back->execution(0).name(), "case<1>");
}

TEST(XesTest, DocumentStructure) {
  EventLog log = EventLog::FromCompactStrings({"AB"});
  std::string xml = ToXes(log);
  EXPECT_NE(xml.find("<?xml"), std::string::npos);
  EXPECT_NE(xml.find("<log "), std::string::npos);
  EXPECT_NE(xml.find("<trace>"), std::string::npos);
  EXPECT_NE(xml.find("concept:name"), std::string::npos);
  EXPECT_NE(xml.find("</log>"), std::string::npos);
}

TEST(XesTest, RepeatedActivitiesRoundTrip) {
  EventLog log = EventLog::FromCompactStrings({"ABAB"});
  auto back = FromXes(ToXes(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->execution(0).size(), 4u);
}

TEST(XesTest, TraceWithoutNameGetsSynthetic) {
  constexpr char kXml[] = R"(<log>
    <trace>
      <event>
        <string key="concept:name" value="A"/>
        <int key="time:timestamp" value="1"/>
      </event>
    </trace>
  </log>)";
  auto log = FromXes(kXml);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_EQ(log->execution(0).name(), "trace_0");
  EXPECT_EQ(log->execution(0)[0].start, 1);  // complete-only: instantaneous
}

TEST(XesTest, EventWithoutActivityNameFails) {
  constexpr char kXml[] = R"(<log><trace><event>
        <int key="time:timestamp" value="1"/>
      </event></trace></log>)";
  auto log = FromXes(kXml);
  EXPECT_FALSE(log.ok());
  EXPECT_TRUE(log.status().IsInvalidArgument());
}

TEST(XesTest, UnsupportedTransitionFails) {
  constexpr char kXml[] = R"(<log><trace><event>
        <string key="concept:name" value="A"/>
        <string key="lifecycle:transition" value="suspend"/>
      </event></trace></log>)";
  EXPECT_FALSE(FromXes(kXml).ok());
}

TEST(XesTest, UnterminatedTraceFails) {
  EXPECT_FALSE(FromXes("<log><trace>").ok());
}

TEST(XesTest, EmptyLogDocument) {
  auto log = FromXes("<log></log>");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 0u);
}

TEST(XesTest, FileRoundTrip) {
  EventLog log = EventLog::FromCompactStrings({"AB"});
  std::string path = ::testing::TempDir() + "/xes_test.xes";
  ASSERT_TRUE(WriteXesFile(log, path).ok());
  auto back = ReadXesFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_executions(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace procmine
