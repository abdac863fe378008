// Robustness sweeps for every log format: random engine-generated logs must
// round-trip through text, binary and XES byte-for-byte in content, and the
// parsers must reject arbitrary garbage gracefully (error status, never a
// crash or a silently wrong log).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "log/xes.h"
#include "output_of.h"
#include "synth/random_dag.h"
#include "util/random.h"
#include "workflow/engine.h"
#include "stream_equivalence.h"

namespace procmine {
namespace {

/// Random definition -> engine log with outputs and (optionally) durations.
EventLog RandomEngineLog(uint64_t seed, bool durations) {
  RandomDagOptions dag_options;
  dag_options.num_activities = 3 + static_cast<int32_t>(seed % 10);
  dag_options.edge_density = 0.4;
  dag_options.seed = seed;
  ProcessDefinition def(GenerateRandomDag(dag_options));
  Rng rng(seed);
  for (NodeId v = 0; v < def.num_activities(); ++v) {
    def.SetOutputSpec(
        v, OutputSpec::Uniform(static_cast<int>(rng.Uniform(3)), -50, 50));
  }
  EngineOptions options;
  if (durations) {
    options.num_agents = 2;
    options.min_duration = 1;
    options.max_duration = 7;
  }
  Engine engine(&def, options);
  return engine.GenerateLog(20, seed + 1).ValueOrDie();
}

void ExpectSameContent(const EventLog& a, const EventLog& b,
                       bool compare_names_by_value) {
  ASSERT_EQ(a.num_executions(), b.num_executions());
  for (size_t i = 0; i < a.num_executions(); ++i) {
    // Match executions by instance name (containers may reorder).
    const Execution* match = nullptr;
    for (size_t j = 0; j < b.num_executions(); ++j) {
      if (b.execution(j).name() == a.execution(i).name()) {
        match = &b.execution(j);
        break;
      }
    }
    ASSERT_NE(match, nullptr) << a.execution(i).name();
    const Execution& x = a.execution(i);
    ASSERT_EQ(x.size(), match->size());
    for (size_t k = 0; k < x.size(); ++k) {
      if (compare_names_by_value) {
        EXPECT_EQ(a.dictionary().Name(x[k].activity),
                  b.dictionary().Name((*match)[k].activity));
      }
      EXPECT_EQ(x[k].start, (*match)[k].start);
      EXPECT_EQ(x[k].end, (*match)[k].end);
      EXPECT_EQ(OutputOf(x, k), OutputOf(*match, k));
    }
  }
}

class FormatRoundTripTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(FormatRoundTripTest, TextRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = LogReader::ParseText(LogWriter::ToString(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

TEST_P(FormatRoundTripTest, BinaryRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = DecodeBinaryLog(EncodeBinaryLog(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

TEST_P(FormatRoundTripTest, XesRoundTrip) {
  auto [seed, durations] = GetParam();
  EventLog log = RandomEngineLog(seed, durations);
  auto back = FromXes(ToXes(log));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameContent(log, *back, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatRoundTripTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u,
                                                              4u, 5u),
                                            ::testing::Bool()));

/// Runs one garbage input through every text front end a command uses:
/// ParseText at 1 and 4 threads (min_shard_bytes = 1 forces real shard
/// cuts) and the streaming scan. None may crash, every failure must carry
/// a message, and wherever the stream succeeds its executions must be
/// ParseText's. Returns whether the stream accepted the input.
bool ExpectTextFrontEndsSurvive(const std::string& garbage,
                                const std::string& context) {
  Result<EventLog> reference = Status::Internal("unset");
  for (int threads : {1, 4}) {
    LogParseOptions options;
    options.num_threads = threads;
    options.min_shard_bytes = 1;
    auto result = LogReader::ParseText(garbage, options);
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty()) << context;
    }
    if (threads == 1) reference = std::move(result);
  }
  auto streamed = StreamByName(garbage);
  if (!streamed.ok()) {
    EXPECT_FALSE(streamed.status().message().empty()) << context;
    return false;
  }
  EXPECT_TRUE(reference.ok())
      << context << ": stream accepted what ParseText rejects: "
      << reference.status().ToString();
  if (reference.ok()) {
    EXPECT_EQ(*streamed, ByName(*reference)) << context;
  }
  return true;
}

TEST(FormatGarbageTest, TextParserSurvivesGarbage) {
  Rng rng(77);
  // Printable noise: almost always a malformed line.
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Uniform(96) + 32);
    }
    ExpectTextFrontEndsSurvive(garbage, "noise trial " +
                                            std::to_string(trial));
  }
  // Near-logs: START/END pairs per instance, lines shuffled within the
  // instance, instance names reused (non-contiguous), and a few fields
  // corrupted — so a share of the inputs parse and pair, and the
  // stream/batch comparison has teeth.
  const char* const kCorruptions[] = {"x", "START", "END", "7", "-1", "#"};
  int streamed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    std::string garbage;
    const uint64_t executions = 1 + rng.Uniform(3);
    for (uint64_t e = 0; e < executions; ++e) {
      const std::string name = "i" + std::to_string(rng.Uniform(3));
      std::vector<std::vector<std::string>> lines;
      const uint64_t pairs = 1 + rng.Uniform(3);
      for (uint64_t k = 0; k < pairs; ++k) {
        const std::string activity(1,
                                   static_cast<char>('A' + rng.Uniform(3)));
        const int64_t start = rng.UniformRange(0, 5);
        lines.push_back({name, activity, "START", std::to_string(start)});
        std::vector<std::string> end_line = {
            name, activity, "END",
            std::to_string(start + rng.UniformRange(0, 2))};
        if (rng.Bernoulli(0.3)) end_line.push_back(std::to_string(k));
        lines.push_back(std::move(end_line));
      }
      rng.Shuffle(&lines);
      for (std::vector<std::string>& fields : lines) {
        if (rng.Bernoulli(0.06)) {
          fields[rng.Index(fields.size())] =
              kCorruptions[rng.Index(sizeof(kCorruptions) /
                                     sizeof(kCorruptions[0]))];
        }
        if (rng.Bernoulli(0.03)) fields.pop_back();
        for (size_t f = 0; f < fields.size(); ++f) {
          garbage += (f == 0 ? "" : rng.Bernoulli(0.2) ? "\t " : " ");
          garbage += fields[f];
        }
        garbage += rng.Bernoulli(0.1) ? "\r\n" : "\n";
      }
    }
    if (ExpectTextFrontEndsSurvive(garbage, "near-log trial " +
                                                std::to_string(trial) +
                                                ":\n" + garbage)) {
      ++streamed;
    }
  }
  // The generator must keep producing inputs both fronts accept.
  EXPECT_GT(streamed, 100);
}

TEST(FormatGarbageTest, BinaryParserSurvivesGarbage) {
  Rng rng(78);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage = "PMLG";  // valid magic, garbage body
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.NextUint64() & 0xff);
    }
    EXPECT_FALSE(DecodeBinaryLog(garbage).ok());  // checksum rejects
  }
}

TEST(FormatGarbageTest, XesParserSurvivesGarbage) {
  Rng rng(79);
  for (int trial = 0; trial < 50; ++trial) {
    std::string garbage = "<log><trace>";
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.Uniform(96) + 32);
    }
    auto result = FromXes(garbage);  // must not crash
    (void)result;
  }
}

TEST(FormatSizesTest, BinarySmallestXesLargest) {
  EventLog log = RandomEngineLog(9, true);
  size_t text = LogWriter::ToString(log).size();
  size_t binary = EncodeBinaryLog(log).size();
  size_t xes = ToXes(log).size();
  EXPECT_LT(binary, text);
  EXPECT_LT(text, xes);
}

}  // namespace
}  // namespace procmine
