#include "log/binary_log.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "log/writer.h"
#include "output_of.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "workflow/engine.h"
#include "workflow/process_definition.h"

namespace procmine {
namespace {

EventLog SampleLog() {
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACDBE", "ACE"});
  // Add an interval execution with outputs and negative timestamps.
  Execution exec("interval_case");
  exec.Append({0, -5, 10}, std::vector<int64_t>{42, -7});
  exec.Append({1, 3, 20});
  exec.Append({2, 25, 25}, std::vector<int64_t>{0});
  log.AddExecution(std::move(exec));
  return log;
}

void ExpectLogsEqual(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.num_executions(), b.num_executions());
  ASSERT_EQ(a.num_activities(), b.num_activities());
  EXPECT_EQ(a.dictionary().names(), b.dictionary().names());
  for (size_t i = 0; i < a.num_executions(); ++i) {
    const Execution& x = a.execution(i);
    const Execution& y = b.execution(i);
    EXPECT_EQ(x.name(), y.name());
    ASSERT_EQ(x.size(), y.size());
    for (size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j].activity, y[j].activity);
      EXPECT_EQ(x[j].start, y[j].start);
      EXPECT_EQ(x[j].end, y[j].end);
      EXPECT_EQ(OutputOf(x, j), OutputOf(y, j));
    }
  }
}

TEST(BinaryLogTest, RoundTrip) {
  EventLog log = SampleLog();
  std::string encoded = EncodeBinaryLog(log);
  auto decoded = DecodeBinaryLog(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectLogsEqual(log, *decoded);
}

TEST(BinaryLogTest, EmptyLogRoundTrips) {
  EventLog log;
  auto decoded = DecodeBinaryLog(EncodeBinaryLog(log));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_executions(), 0u);
  EXPECT_EQ(decoded->num_activities(), 0);
}

TEST(BinaryLogTest, MuchSmallerThanText) {
  // Engine-generated log with outputs: the dictionary header plus varints
  // should beat the text format comfortably.
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"Receive_Order", "Validate_Payment"},
       {"Validate_Payment", "Ship_Package"},
       {"Ship_Package", "Close_Ticket"}});
  ProcessDefinition def(std::move(g));
  Engine engine(&def);
  auto log = engine.GenerateLog(200, 5);
  ASSERT_TRUE(log.ok());
  size_t text_size = LogWriter::ToString(*log).size();
  size_t binary_size = EncodeBinaryLog(*log).size();
  EXPECT_LT(binary_size * 3, text_size);
}

TEST(BinaryLogTest, RejectsBadMagic) {
  std::string encoded = EncodeBinaryLog(SampleLog());
  encoded[0] = 'X';
  auto decoded = DecodeBinaryLog(encoded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(BinaryLogTest, RejectsTooShortInput) {
  EXPECT_FALSE(DecodeBinaryLog("PML").ok());
  EXPECT_FALSE(DecodeBinaryLog("").ok());
}

TEST(BinaryLogTest, DetectsEveryByteCorruption) {
  // Property: flipping any single byte must be detected (checksum or
  // structural error) — never silently decode to a DIFFERENT log.
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  std::string encoded = EncodeBinaryLog(log);
  Rng rng(3);
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::string corrupted = encoded;
    corrupted[i] = static_cast<char>(
        corrupted[i] ^ static_cast<char>(1 + rng.Uniform(255)));
    auto decoded = DecodeBinaryLog(corrupted);
    EXPECT_FALSE(decoded.ok()) << "corruption at byte " << i
                               << " went undetected";
  }
}

TEST(BinaryLogTest, DetectsTruncation) {
  std::string encoded = EncodeBinaryLog(SampleLog());
  for (size_t keep : {encoded.size() - 1, encoded.size() / 2, size_t{9}}) {
    auto decoded = DecodeBinaryLog(std::string_view(encoded).substr(0, keep));
    EXPECT_FALSE(decoded.ok()) << "kept " << keep;
  }
}

TEST(BinaryLogTest, DetectsTrailingGarbageUnderChecksum) {
  // Valid body + extra bytes before the checksum is re-signed: caught by
  // the checksum; extra bytes appended after a re-signed body are caught by
  // the trailing-bytes check. Simulate the latter by re-encoding manually.
  EventLog log = EventLog::FromCompactStrings({"AB"});
  std::string encoded = EncodeBinaryLog(log);
  // Append garbage then fix up nothing: checksum now covers wrong span.
  encoded.insert(encoded.size() - 4, "zzz");
  EXPECT_FALSE(DecodeBinaryLog(encoded).ok());
}

TEST(BinaryLogTest, FileRoundTrip) {
  EventLog log = SampleLog();
  std::string path = ::testing::TempDir() + "/binary_log_test.bin";
  ASSERT_TRUE(WriteBinaryLogFile(log, path).ok());
  auto read = ReadBinaryLogFile(path);
  ASSERT_TRUE(read.ok());
  ExpectLogsEqual(log, *read);
  std::remove(path.c_str());
}

TEST(BinaryLogTest, MissingFileIsIOError) {
  EXPECT_TRUE(ReadBinaryLogFile("/nonexistent/x.bin").status().IsIOError());
}

/// A version-1 log with the one activity "A" whose body ends in `tail`,
/// under a valid checksum.
std::string SignedBinaryLog(std::string_view tail) {
  std::string body;
  PutVarint64(&body, 1);  // version
  PutVarint64(&body, 1);  // activity count
  PutLengthPrefixed(&body, "A");
  body.append(tail);
  std::string out("PMLG", 4);
  out += body;
  PutFixed32(&out, Crc32c(body));
  return out;
}

TEST(BinaryLogTest, HugeDeclaredCountsFailWithoutHugeAllocations) {
  // 2^40 instances in one execution, then 2^40 executions, each with only
  // a few bytes left to hold them. Reserving either count as declared
  // would ask for tens of terabytes and throw std::bad_alloc.
  std::string huge_instances;
  PutVarint64(&huge_instances, 1);  // execution count
  PutLengthPrefixed(&huge_instances, "x");
  PutVarint64(&huge_instances, 1ull << 40);  // instance count
  huge_instances.append(3, '\0');
  std::string huge_executions;
  PutVarint64(&huge_executions, 1ull << 40);  // execution count
  PutLengthPrefixed(&huge_executions, "x");
  PutVarint64(&huge_executions, 0);  // instance count
  for (const std::string& tail : {huge_instances, huge_executions}) {
    const std::string data = SignedBinaryLog(tail);
    auto strict = DecodeBinaryLog(data);
    ASSERT_FALSE(strict.ok());
    EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
    IngestionReport report;
    BinaryDecodeOptions options;
    options.recovery = RecoveryPolicy::kSkip;
    options.report = &report;
    auto salvaged = DecodeBinaryLog(data, options);
    ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
    EXPECT_EQ(salvaged->num_executions(), tail == huge_executions ? 1u : 0u);
  }
}

}  // namespace
}  // namespace procmine
