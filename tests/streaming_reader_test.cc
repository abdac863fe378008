#include "log/streaming_reader.h"

#include <gtest/gtest.h>

#include <string>

#include "log/writer.h"
#include "mine/incremental.h"
#include "mine/metrics.h"
#include "mine/miner.h"
#include "output_of.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

TEST(StreamingReaderTest, DeliversExecutionsInOrder) {
  std::string input(R"(
c1 A START 0
c1 A END 0
c1 B START 1
c1 B END 1
# comment
c2 A START 0
c2 A END 0
)");
  std::vector<std::string> names;
  std::vector<size_t> sizes;
  auto stats = StreamLog(input, [&](const Execution& exec,
                                    const ActivityDictionary&) {
    names.push_back(exec.name());
    sizes.push_back(exec.size());
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->executions, 2);
  EXPECT_EQ(stats->events, 6);
  EXPECT_EQ(names, (std::vector<std::string>{"c1", "c2"}));
  EXPECT_EQ(sizes, (std::vector<size_t>{2, 1}));
}

TEST(StreamingReaderTest, DictionaryGrowsAndIsShared) {
  std::string input(
      "c1 A START 0\nc1 A END 0\nc2 B START 0\nc2 B END 0\n");
  std::vector<ActivityId> first_ids;
  auto stats = StreamLog(input, [&](const Execution& exec,
                                    const ActivityDictionary& dict) {
    first_ids.push_back(exec[0].activity);
    EXPECT_LT(exec[0].activity, dict.size());
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(first_ids, (std::vector<ActivityId>{0, 1}));
}

TEST(StreamingReaderTest, CallbackAbortPropagates) {
  std::string input(
      "c1 A START 0\nc1 A END 0\nc2 A START 0\nc2 A END 0\n");
  int seen = 0;
  auto stats = StreamLog(input, [&](const Execution&,
                                    const ActivityDictionary&) {
    ++seen;
    return Status::Internal("stop here");
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_EQ(seen, 1);
}

TEST(StreamingReaderTest, RejectsInterleavedInstances) {
  std::string input(
      "c1 A START 0\nc1 A END 0\nc2 A START 0\nc2 A END 0\n"
      "c1 B START 1\nc1 B END 1\n");
  auto stats = StreamLog(input,
                         [](const Execution&, const ActivityDictionary&) {
                           return Status::OK();
                         });
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("not contiguous"),
            std::string::npos);
}

TEST(StreamingReaderTest, RejectsUnmatchedEvents) {
  std::string open_start("c1 A START 0\n");
  EXPECT_FALSE(StreamLog(open_start, [](const Execution&,
                                        const ActivityDictionary&) {
                 return Status::OK();
               }).ok());
  std::string bare_end("c1 A END 0\n");
  EXPECT_FALSE(StreamLog(bare_end, [](const Execution&,
                                      const ActivityDictionary&) {
                 return Status::OK();
               }).ok());
}

TEST(StreamingReaderTest, HandlesIntervalsAndOutputs) {
  std::string input(
      "c1 A START 5\nc1 B START 7\nc1 B END 9 42\nc1 A END 12 1 2\n");
  auto stats = StreamLog(input, [&](const Execution& exec,
                                    const ActivityDictionary& dict) {
    EXPECT_EQ(exec.size(), 2u);
    EXPECT_EQ(dict.Name(exec[0].activity), "A");  // earliest start first
    EXPECT_EQ(exec[0].start, 5);
    EXPECT_EQ(exec[0].end, 12);
    EXPECT_EQ(OutputOf(exec, 0), (std::vector<int64_t>{1, 2}));
    EXPECT_EQ(OutputOf(exec, 1), (std::vector<int64_t>{42}));
    return Status::OK();
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(StreamingReaderTest, StreamingIntoIncrementalMinerMatchesBatch) {
  // The headline composition: stream a big engine log straight into the
  // incremental miner without materializing an EventLog, and get exactly
  // the batch answer.
  ProcessGraph truth = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"S", "B"}, {"A", "E"}, {"B", "E"}});
  ProcessDefinition def(truth);
  Engine engine(&def);
  auto log = engine.GenerateLog(200, 77);
  ASSERT_TRUE(log.ok());
  std::string text = LogWriter::ToString(*log);

  IncrementalMiner streaming_miner;
  std::string input(text);
  auto stats = StreamLog(input, [&](const Execution& exec,
                                    const ActivityDictionary& dict) {
    return streaming_miner.AddExecution(exec, dict);
  });
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->executions, 200);

  auto streamed = streaming_miner.CurrentGraph();
  ASSERT_TRUE(streamed.ok());
  auto batch = ProcessMiner().Mine(*log);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(CompareByName(*batch, *streamed).ExactMatch());
}

TEST(StreamingReaderTest, MissingFileIsIOError) {
  auto stats = StreamLogFile("/nonexistent/file.log",
                             [](const Execution&, const ActivityDictionary&) {
                               return Status::OK();
                             });
  EXPECT_TRUE(stats.status().IsIOError());
}

}  // namespace
}  // namespace procmine
