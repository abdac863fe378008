// Ingestion equivalence: every text front end against the legacy oracle.
//
// For EVERY input — well-formed engine logs, paper-style examples, and
// malformed text — the fused parser (LogReader::ParseText / ReadFile, any
// thread count, any shard granularity) produces exactly what the legacy
// ParseEvents + EventLog::FromEvents pipeline (legacy_text_parser.h)
// produces: identical dictionaries (names AND id order), identical
// executions, identical serialized bytes, and identical error messages.
// The streaming scan (StreamLog / StreamLogFile) must deliver ParseText's
// executions, compared by name, on every input whose instances are
// contiguous, and fail with ParseText's message on every single-fault
// input.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/recovery.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"
#include "util/random.h"
#include "util/strings.h"
#include "workflow/engine.h"
#include "legacy_text_parser.h"
#include "output_of.h"
#include "stream_equivalence.h"

namespace procmine {
namespace {

/// Random definition -> engine log, same generator family as
/// format_fuzz_test: outputs, optional durations/overlap via agents.
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

/// The corpus: serialized text logs covering the format's corners.
std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  // Hand-written cases: comments, blank lines, CRLF, no trailing newline,
  // interleaved instances, repeated activities, instantaneous events,
  // outputs, whitespace runs, and instance names that sort differently
  // than they appear.
  corpus.push_back("");
  corpus.push_back("# only a comment\n\n  \n");
  corpus.push_back(
      "zeta A START 0\nzeta A END 1\n"
      "alpha B START 0\nalpha B END 2 7 -3\n");
  corpus.push_back(
      "c1 A START 0\r\nc1 A END 0\r\nc1 B START 1\r\nc1 B END 3 42\r\n");
  corpus.push_back("solo    Work   START   5\nsolo Work END 9");  // no \n
  corpus.push_back(
      "x A START 0\ny A START 0\nx A END 1\ny A END 2 1\n"
      "x B START 2\ny B START 3\nx B END 4\ny B END 5\n");
  corpus.push_back(
      "loop A START 0\nloop A END 1\nloop A START 2\nloop A END 3\n"
      "loop B START 4\nloop B END 5\nloop A START 6\nloop A END 7\n");
  // Overlapping activities (END after a later START).
  corpus.push_back(
      "ov A START 0\nov B START 1\nov A END 3\nov B END 4\n");
  // Lines of one instance out of time order: pairing follows timestamps.
  corpus.push_back(
      "p1 A END 5\np1 A START 3\np1 B START 6\np1 B END 7\n");
  // Two pairs of one activity with the END lines swapped.
  corpus.push_back(
      "p2 A START 1\np2 A END 4\np2 A START 3\np2 A END 2\n");
  // Engine-generated sweeps, with and without durations.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    corpus.push_back(LogWriter::ToString(RandomEngineLog(seed, false)));
    corpus.push_back(LogWriter::ToString(RandomEngineLog(seed, true)));
  }
  return corpus;
}

/// Malformed inputs, each with exactly one fault; every path must fail
/// with the same message.
std::vector<std::string> MalformedCorpus() {
  return {
      "case1 A START\n",
      "case1 A MIDDLE 5\n",
      "case1 A START late\n",
      "case1 A START 0 99\n",
      "c A END 1 notanint\n",
      "c A START 0\nc A END x\n",
      "c A END 5\n",                          // END without START
      "c A START 5\n",                        // START without END
      "c A START 1\nc A START 2\nc A END 3\n",  // one START left open
      "ok A START 0\nok A END 1\nbad B END 9\n",
      "# header\n\nok A START 0\nok A END 1\nshort line\n",
      "a A START 0\na A END 1\nb B START 99999999999999999999\n",
      "m X START 0\nm X END 1\nm Y START 2\nm Z END 3\nm Y END 4\n",
  };
}

void ExpectIdenticalLogs(const EventLog& a, const EventLog& b,
                         const std::string& context) {
  // Dictionaries must match exactly — same names in the same id order.
  ASSERT_EQ(a.dictionary().names(), b.dictionary().names()) << context;
  ASSERT_EQ(a.num_executions(), b.num_executions()) << context;
  for (size_t i = 0; i < a.num_executions(); ++i) {
    const Execution& x = a.execution(i);
    const Execution& y = b.execution(i);
    ASSERT_EQ(x.name(), y.name()) << context;
    ASSERT_EQ(x.size(), y.size()) << context << " exec " << x.name();
    for (size_t k = 0; k < x.size(); ++k) {
      EXPECT_EQ(x[k].activity, y[k].activity) << context;
      EXPECT_EQ(x[k].start, y[k].start) << context;
      EXPECT_EQ(x[k].end, y[k].end) << context;
      EXPECT_EQ(OutputOf(x, k), OutputOf(y, k)) << context;
    }
  }
  // Byte-level seal: identical text and binary serializations.
  EXPECT_EQ(LogWriter::ToString(a), LogWriter::ToString(b)) << context;
  EXPECT_EQ(EncodeBinaryLog(a), EncodeBinaryLog(b)) << context;
}

LogParseOptions ShardedOptions(int threads) {
  LogParseOptions options;
  options.num_threads = threads;
  // Force real multi-shard parses even on small corpora.
  options.min_shard_bytes = 1;
  return options;
}

TEST(IngestEquivalenceTest, ParseTextMatchesLegacyOnCorpus) {
  int case_no = 0;
  for (const std::string& text : Corpus()) {
    std::string context = "corpus case " + std::to_string(case_no++);
    auto legacy = legacy::ReadString(text);
    ASSERT_TRUE(legacy.ok()) << context << ": " << legacy.status().ToString();
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(text, ShardedOptions(threads));
      ASSERT_TRUE(fused.ok())
          << context << ": " << fused.status().ToString();
      ExpectIdenticalLogs(*legacy, *fused,
                          context + " threads=" + std::to_string(threads));
    }
  }
}

TEST(IngestEquivalenceTest, IdenticalErrorsOnMalformedInput) {
  int case_no = 0;
  for (const std::string& text : MalformedCorpus()) {
    std::string context = "malformed case " + std::to_string(case_no++);
    auto legacy = legacy::ReadString(text);
    ASSERT_FALSE(legacy.ok()) << context;
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(text, ShardedOptions(threads));
      ASSERT_FALSE(fused.ok()) << context;
      EXPECT_EQ(legacy.status().code(), fused.status().code()) << context;
      EXPECT_EQ(legacy.status().message(), fused.status().message())
          << context << " threads=" << threads;
    }
  }
}

TEST(IngestEquivalenceTest, ReadFileMatchesReadString) {
  std::string path = ::testing::TempDir() + "ingest_equivalence.log";
  for (uint64_t seed : {11u, 12u}) {
    std::string text = LogWriter::ToString(RandomEngineLog(seed, true));
    {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.is_open());
      out << text;
    }
    auto legacy = legacy::ReadString(text);
    ASSERT_TRUE(legacy.ok());
    for (int threads : {1, 2, 8}) {
      auto from_file = LogReader::ReadFile(path, ShardedOptions(threads));
      ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
      ExpectIdenticalLogs(*legacy, *from_file,
                          "file seed " + std::to_string(seed));
    }
  }
  std::remove(path.c_str());
}

TEST(IngestEquivalenceTest, ShardCountsDoNotChangeTheResult) {
  // Same input at many shard granularities: line-boundary splitting must
  // never split or duplicate an event.
  std::string text = LogWriter::ToString(RandomEngineLog(21, true));
  auto reference = LogReader::ParseText(text);
  ASSERT_TRUE(reference.ok());
  for (int threads : {2, 3, 5, 16}) {
    for (size_t min_bytes : {size_t{1}, size_t{64}, size_t{4096}}) {
      LogParseOptions options;
      options.num_threads = threads;
      options.min_shard_bytes = min_bytes;
      auto sharded = LogReader::ParseText(text, options);
      ASSERT_TRUE(sharded.ok());
      ExpectIdenticalLogs(
          *reference, *sharded,
          "threads=" + std::to_string(threads) + " min_bytes=" +
              std::to_string(min_bytes));
    }
  }
}

/// True when no instance's events resume after another instance's began —
/// the input shape the streaming scan requires.
bool InstancesAreContiguous(const std::string& text) {
  std::set<std::string> finished;
  std::string current;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::vector<std::string> fields = SplitWhitespace(Trim(line));
    if (fields.empty() || fields[0][0] == '#') continue;
    if (fields[0] == current) continue;
    if (finished.count(fields[0]) > 0) return false;
    if (!current.empty()) finished.insert(current);
    current = fields[0];
  }
  return true;
}

TEST(IngestEquivalenceTest, StreamingMatchesParseTextOnContiguousCorpus) {
  int compared = 0;
  int case_no = 0;
  for (const std::string& text : Corpus()) {
    std::string context = "corpus case " + std::to_string(case_no++);
    if (!InstancesAreContiguous(text)) continue;
    auto batch = LogReader::ParseText(text);
    ASSERT_TRUE(batch.ok()) << context << ": " << batch.status().ToString();
    auto streamed = StreamByName(text);
    ASSERT_TRUE(streamed.ok())
        << context << ": " << streamed.status().ToString();
    EXPECT_EQ(*streamed, ByName(*batch)) << context;
    ++compared;
  }
  // Only the interleaved hand-written case is out of the stream's reach.
  EXPECT_EQ(compared, static_cast<int>(Corpus().size()) - 1);
}

TEST(IngestEquivalenceTest, StreamingMatchesParseTextErrorsOnMalformedInput) {
  int case_no = 0;
  for (const std::string& text : MalformedCorpus()) {
    std::string context = "malformed case " + std::to_string(case_no++);
    auto batch = LogReader::ParseText(text);
    ASSERT_FALSE(batch.ok()) << context;
    auto streamed = StreamByName(text);
    ASSERT_FALSE(streamed.ok()) << context;
    EXPECT_EQ(batch.status().code(), streamed.status().code()) << context;
    EXPECT_EQ(batch.status().message(), streamed.status().message())
        << context;
  }
}

TEST(IngestEquivalenceTest, StreamingFileMatchesInMemoryStreaming) {
  // StreamLogFile is an mmap plus StreamLog: same executions in the same
  // order, same stats.
  EventLog log = RandomEngineLog(31, true);
  std::string text = LogWriter::ToString(log);
  std::string path = ::testing::TempDir() + "ingest_stream.log";
  {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out << text;
  }
  std::vector<std::string> stream_names;
  auto from_stream = StreamLog(text, [&](const Execution& e,
                                         const ActivityDictionary&) {
    stream_names.push_back(e.name());
    return Status::OK();
  });
  ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();
  std::vector<std::string> file_names;
  auto from_file = StreamLogFile(path, [&](const Execution& e,
                                           const ActivityDictionary&) {
    file_names.push_back(e.name());
    return Status::OK();
  });
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(stream_names, file_names);
  EXPECT_EQ(from_stream->lines, from_file->lines);
  EXPECT_EQ(from_stream->events, from_file->events);
  EXPECT_EQ(from_stream->executions, from_file->executions);
  std::remove(path.c_str());
}

/// One event as a log line.
std::string EventLine(const Event& e) {
  std::string line = e.process_instance + " " + e.activity +
                     (e.type == EventType::kStart ? " START " : " END ") +
                     std::to_string(e.timestamp);
  for (int64_t v : e.output) line += " " + std::to_string(v);
  return line + "\n";
}

/// An engine log's events with its executions dealt round-robin, one event
/// of each unfinished execution per turn, so no instance is contiguous.
/// Execution i is renamed inst_<i>, or inst_<n-1-i> with `reverse_names`:
/// then the instances first appear in reverse name order.
std::vector<Event> InterleavedEvents(uint64_t seed, bool reverse_names) {
  EventLog log = RandomEngineLog(seed, true);
  std::vector<std::vector<Event>> by_execution;
  for (Event& e : log.ToEvents()) {
    if (by_execution.empty() ||
        by_execution.back().front().process_instance != e.process_instance) {
      by_execution.emplace_back();
    }
    by_execution.back().push_back(std::move(e));
  }
  const size_t n = by_execution.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t rank = reverse_names ? n - 1 - i : i;
    for (Event& e : by_execution[i]) {
      e.process_instance = StrFormat("inst_%02zu", rank);
    }
  }
  const size_t total = static_cast<size_t>(log.TotalInstances()) * 2;
  std::vector<Event> events;
  for (size_t turn = 0; events.size() < total; ++turn) {
    for (const std::vector<Event>& execution : by_execution) {
      if (turn < execution.size()) events.push_back(execution[turn]);
    }
  }
  return events;
}

TEST(IngestEquivalenceTest, NonContiguousInstancesInAnyNameOrder) {
  // Instances that resume after others began, first appearing in name order
  // (assembly keeps the interning order) and in reverse name order
  // (assembly sorts). Under kQuarantine the same text carries malformed
  // lines and one unpairable instance; the surviving log must be the
  // legacy parse of the clean text, and every quarantine record must point
  // at the bytes it came from.
  const std::vector<std::pair<std::string, std::string>> kMalformed = {
      {"short line", "short_line"},
      {"x A MIDDLE 5", "bad_event_type"},
      {"x A START late", "bad_timestamp"},
      {"x A START 0 99", "output_on_start"},
      {"x A END 1 notanint", "bad_output"},
  };
  const std::vector<Event> kPoisoned = {
      {"poisoned", "p", EventType::kEnd, 5, {}},
      {"poisoned", "q", EventType::kStart, 6, {}},
      {"poisoned", "q", EventType::kEnd, 7, {}},
  };
  for (bool reverse_names : {false, true}) {
    const std::vector<Event> events = InterleavedEvents(51, reverse_names);
    std::string clean, poisoned, dirty;
    std::vector<QuarantineRecord> expected;
    int64_t lines = 0;
    for (size_t i = 0; i < events.size(); ++i) {
      const std::string line = EventLine(events[i]);
      clean += line;
      poisoned += line;
      dirty += line;
      ++lines;
      if (i % 7 == 3) {
        const auto& [text, error_class] = kMalformed[expected.size() %
                                                     kMalformed.size()];
        expected.push_back({static_cast<int64_t>(dirty.size()), ++lines,
                            error_class, text});
        dirty += text + "\n";
      }
      if (i % 11 == 5 && i / 11 < kPoisoned.size()) {
        const std::string bad = EventLine(kPoisoned[i / 11]);
        poisoned += bad;
        dirty += bad;
        ++lines;
      }
    }
    const std::string context =
        reverse_names ? "reverse name order" : "name order";
    auto legacy = legacy::ReadString(clean);
    ASSERT_TRUE(legacy.ok()) << context << ": " << legacy.status().ToString();
    // The oracle assembles through the same AssembleEventLog, so check the
    // name order on its own.
    ASSERT_EQ(legacy->num_executions(), 20u) << context;
    for (size_t i = 1; i < legacy->num_executions(); ++i) {
      EXPECT_LT(legacy->execution(i - 1).name(), legacy->execution(i).name())
          << context;
    }
    // The unpairable instance is dropped with the message the strict oracle
    // fails with.
    auto legacy_poisoned = legacy::ReadString(poisoned);
    ASSERT_FALSE(legacy_poisoned.ok()) << context;
    expected.push_back({-1, 0, "end_without_start",
                        legacy_poisoned.status().message()});

    for (int threads : {1, 2, 8}) {
      for (size_t min_bytes : {size_t{1}, size_t{64}, size_t{4096}}) {
        const std::string where = context + " threads=" +
                                  std::to_string(threads) + " min_bytes=" +
                                  std::to_string(min_bytes);
        LogParseOptions options;
        options.num_threads = threads;
        options.min_shard_bytes = min_bytes;
        auto strict = LogReader::ParseText(clean, options);
        ASSERT_TRUE(strict.ok()) << where << ": "
                                 << strict.status().ToString();
        ExpectIdenticalLogs(*legacy, *strict, where + " strict");

        IngestionReport report;
        options.recovery = RecoveryPolicy::kQuarantine;
        options.report = &report;
        auto recovered = LogReader::ParseText(dirty, options);
        ASSERT_TRUE(recovered.ok()) << where << ": "
                                    << recovered.status().ToString();
        ExpectIdenticalLogs(*legacy, *recovered, where + " quarantine");
        ASSERT_EQ(report.quarantined.size(), expected.size()) << where;
        for (size_t r = 0; r < expected.size(); ++r) {
          const QuarantineRecord& got = report.quarantined[r];
          EXPECT_EQ(got.byte_offset, expected[r].byte_offset) << where;
          EXPECT_EQ(got.line, expected[r].line) << where;
          EXPECT_EQ(got.error_class, expected[r].error_class) << where;
          EXPECT_EQ(got.raw, expected[r].raw) << where;
        }
      }
    }
  }
}

TEST(IngestEquivalenceTest, NoisyLogsStayEquivalent) {
  // Noise-injected logs exercise unusual shapes (dropped/duplicated
  // instances) while staying parseable.
  for (uint64_t seed : {41u, 42u}) {
    EventLog clean = RandomEngineLog(seed, false);
    NoiseOptions noise;
    noise.swap_rate = 0.1;
    noise.insert_rate = 0.2;
    noise.delete_rate = 0.2;
    noise.seed = seed;
    EventLog noisy = InjectNoise(clean, noise);
    std::string text = LogWriter::ToString(noisy);
    auto legacy = legacy::ReadString(text);
    ASSERT_TRUE(legacy.ok());
    for (int threads : {1, 2, 8}) {
      auto fused = LogReader::ParseText(text, ShardedOptions(threads));
      ASSERT_TRUE(fused.ok());
      ExpectIdenticalLogs(*legacy, *fused, "noisy seed " +
                          std::to_string(seed));
    }
  }
}

}  // namespace
}  // namespace procmine
