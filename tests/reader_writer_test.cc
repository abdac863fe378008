#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "log/reader.h"
#include "log/writer.h"
#include "output_of.h"

namespace procmine {
namespace {

constexpr char kSampleLog[] = R"(# sample workflow log
case1 A START 0
case1 A END 1 42
case1 B START 2
case1 B END 3 7 9

case2 A START 0
case2 A END 1 40
case2 C START 2
case2 C END 3
)";

TEST(LogReaderTest, ParsesEvents) {
  auto log = LogReader::ParseText(kSampleLog);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const Execution& case1 = log->execution(0);
  EXPECT_EQ(case1.name(), "case1");
  ASSERT_EQ(case1.size(), 2u);
  EXPECT_EQ(log->dictionary().Name(case1[0].activity), "A");
  EXPECT_EQ(case1[0].start, 0);
  EXPECT_EQ(case1[0].end, 1);
  EXPECT_EQ(OutputOf(case1, 0), (std::vector<int64_t>{42}));
  EXPECT_EQ(OutputOf(case1, 1), (std::vector<int64_t>{7, 9}));
}

TEST(LogReaderTest, SkipsCommentsAndBlankLines) {
  auto log = LogReader::ParseText("# only a comment\n\n  \n");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 0u);
}

TEST(LogReaderTest, ParseTextAssemblesLog) {
  auto log = LogReader::ParseText(kSampleLog);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 2u);
  EXPECT_EQ(log->num_activities(), 3);
}

TEST(LogReaderTest, RejectsShortLines) {
  auto r = LogReader::ParseText("case1 A START\n");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(LogReaderTest, RejectsBadEventType) {
  auto r = LogReader::ParseText("case1 A MIDDLE 5\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("START or END"), std::string::npos);
}

TEST(LogReaderTest, RejectsBadTimestamp) {
  auto r = LogReader::ParseText("case1 A START late\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("timestamp"), std::string::npos);
}

TEST(LogReaderTest, RejectsOutputsOnStartEvents) {
  auto r = LogReader::ParseText("case1 A START 0 99\n");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("END events"), std::string::npos);
}

TEST(LogReaderTest, RejectsBadOutputParameter) {
  auto r = LogReader::ParseText("case1 A END 1 notanint\n");
  EXPECT_FALSE(r.ok());
}

TEST(LogReaderTest, ErrorMessagesIncludeLineNumbers) {
  auto r = LogReader::ParseText("c A START 0\nc A END x\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(LogReaderTest, ReadFileMissingIsIOError) {
  auto r = LogReader::ReadFile("/nonexistent/file.log");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST(LogWriterTest, RoundTripExact) {
  auto log = LogReader::ParseText(kSampleLog);
  ASSERT_TRUE(log.ok());
  std::string serialized = LogWriter::ToString(*log);
  auto reparsed = LogReader::ParseText(serialized);
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(LogWriter::ToString(*reparsed), serialized);
  EXPECT_EQ(reparsed->num_executions(), log->num_executions());
  EXPECT_EQ(reparsed->TotalInstances(), log->TotalInstances());
}

TEST(LogWriterTest, SerializedBytesMatchesToString) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  EXPECT_EQ(LogWriter::SerializedBytes(log),
            static_cast<int64_t>(LogWriter::ToString(log).size()));
}

TEST(LogWriterTest, CsvHasHeaderAndRows) {
  EventLog log = EventLog::FromCompactStrings({"AB"});
  std::string csv = LogWriter::ToCsv(log);
  EXPECT_NE(csv.find("process_instance,activity,type,timestamp,output"),
            std::string::npos);
  // 2 instances -> 4 event rows + header = 5 lines.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}

TEST(LogWriterTest, WriteAndReadFile) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  std::string path = ::testing::TempDir() + "/procmine_rw_test.log";
  ASSERT_TRUE(LogWriter::WriteFile(log, path).ok());
  auto read = LogReader::ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->num_executions(), 1u);
  EXPECT_EQ(read->execution(0).size(), 3u);
  std::remove(path.c_str());
}

TEST(LogWriterTest, WriteFileBadPathIsIOError) {
  EventLog log = EventLog::FromCompactStrings({"A"});
  EXPECT_TRUE(
      LogWriter::WriteFile(log, "/nonexistent_dir_xyz/x.log").IsIOError());
}

TEST(LogWriterTest, OutputsSerializedOnEndEvents) {
  Execution exec("c");
  exec.Append({0, 0, 1}, std::vector<int64_t>{5, 6});
  EventLog log;
  log.dictionary().Intern("A");
  log.AddExecution(std::move(exec));
  std::string text = LogWriter::ToString(log);
  EXPECT_NE(text.find("c A END 1 5 6"), std::string::npos);
  EXPECT_NE(text.find("c A START 0\n"), std::string::npos);
}

}  // namespace
}  // namespace procmine
