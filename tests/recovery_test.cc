// Recovery-mode ingestion matrix: malformed corpora x {strict, skip,
// quarantine} x thread counts {1, 2, 8}. The contract under test:
//
//  * kStrict keeps the classic fail-the-whole-read behavior;
//  * kSkip / kQuarantine always succeed, dropping only the malformed input;
//  * the surviving log, the IngestionReport, and the quarantine bytes are
//    byte-identical for every thread count;
//  * truncated binary logs salvage every complete execution.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "log/binary_log.h"
#include "log/reader.h"
#include "log/recovery.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "output_of.h"

namespace procmine {
namespace {

/// Malformed inputs, one failure mode each (mirrors the strict-path corpus
/// in ingest_equivalence_test).
std::vector<std::string> MalformedCorpus() {
  return {
      "case1 A START\n",
      "case1 A MIDDLE 5\n",
      "case1 A START late\n",
      "case1 A START 0 99\n",
      "c A END 1 notanint\n",
      "c A START 0\nc A END x\n",
      "c A END 5\n",                            // END without START
      "c A START 5\n",                          // START without END
      "c A START 1\nc A START 2\nc A END 3\n",  // one START left open
      "ok A START 0\nok A END 1\nbad B END 9\n",
      "# header\n\nok A START 0\nok A END 1\nshort line\n",
      "a A START 0\na A END 1\nb B START 99999999999999999999\n",
      "m X START 0\nm X END 1\nm Y START 2\nm Z END 3\nm Y END 4\n",
  };
}

/// A corpus with one reject per error class, interleaved with good
/// executions that must survive untouched.
constexpr char kMixedCorpus[] =
    "# hostile corpus\n"
    "good A START 0\n"
    "good A END 1\n"
    "good B START 2\n"
    "good B END 4 7\n"
    "junk\n"                        // short_line
    "bad1 A START notatime\n"       // bad_timestamp
    "bad2 A FOO 5\n"                // bad_event_type
    "bad3 A START 0 9\n"            // output_on_start
    "bad4 A END 1 nope\n"           // bad_output
    "orphan C END 9\n"              // end_without_start (execution dropped)
    "open D START 3\n"              // start_without_end (execution dropped)
    "good2 A START 5\n"
    "good2 A END 6\n";

LogParseOptions Sharded(int threads, RecoveryPolicy policy,
                        IngestionReport* report) {
  LogParseOptions options;
  options.num_threads = threads;
  options.min_shard_bytes = 1;  // force real multi-shard parses
  options.recovery = policy;
  options.report = report;
  return options;
}

/// Everything observable about one recovery-mode parse, flattened to a
/// string so thread-count invariance is a single byte comparison.
std::string ParseFingerprint(const EventLog& log,
                             const IngestionReport& report) {
  std::string out = LogWriter::ToString(log);
  out += "\x1f";
  out += EncodeBinaryLog(log);  // covers the dictionary, ids and all
  out += "\x1f";
  out += std::to_string(report.lines_total) + "/" +
         std::to_string(report.events_parsed) + "/" +
         std::to_string(report.lines_skipped) + "/" +
         std::to_string(report.executions_dropped);
  for (const auto& [error_class, count] : report.error_classes) {
    out += ";" + error_class + "=" + std::to_string(count);
  }
  out += "\x1f";
  out += report.QuarantineText();
  return out;
}

int64_t ClassCount(const IngestionReport& report, const std::string& name) {
  for (const auto& [error_class, count] : report.error_classes) {
    if (error_class == name) return count;
  }
  return 0;
}

TEST(RecoveryMatrixTest, StrictStillFailsTheWholeParse) {
  for (const std::string& text : MalformedCorpus()) {
    IngestionReport report;
    auto log = LogReader::ParseText(
        text, Sharded(2, RecoveryPolicy::kStrict, &report));
    EXPECT_FALSE(log.ok()) << text;
  }
}

TEST(RecoveryMatrixTest, SkipAndQuarantineRecoverEveryMalformedInput) {
  for (const std::string& text : MalformedCorpus()) {
    for (RecoveryPolicy policy :
         {RecoveryPolicy::kSkip, RecoveryPolicy::kQuarantine}) {
      std::string baseline;
      for (int threads : {1, 2, 8}) {
        IngestionReport report;
        auto log =
            LogReader::ParseText(text, Sharded(threads, policy, &report));
        ASSERT_TRUE(log.ok())
            << log.status().ToString() << "\ninput: " << text;
        EXPECT_TRUE(report.AnyLoss()) << text;
        EXPECT_EQ(report.policy, policy);
        // Quarantine records exist exactly under kQuarantine.
        EXPECT_EQ(report.quarantined.empty(),
                  policy == RecoveryPolicy::kSkip)
            << text;
        std::string fingerprint = ParseFingerprint(*log, report);
        if (threads == 1) {
          baseline = fingerprint;
        } else {
          // Byte-identical artifacts for every thread count.
          EXPECT_EQ(fingerprint, baseline)
              << "threads=" << threads << " input: " << text;
        }
      }
    }
  }
}

TEST(RecoveryMatrixTest, MixedCorpusKeepsGoodExecutionsAndCountsClasses) {
  IngestionReport report;
  auto log = LogReader::ParseText(
      kMixedCorpus, Sharded(1, RecoveryPolicy::kQuarantine, &report));
  ASSERT_TRUE(log.ok()) << log.status().ToString();

  // Only the two clean executions survive, in source order.
  ASSERT_EQ(log->num_executions(), 2u);
  EXPECT_EQ(log->execution(0).name(), "good");
  EXPECT_EQ(log->execution(1).name(), "good2");
  EXPECT_EQ(log->execution(0).size(), 2u);

  EXPECT_EQ(report.lines_skipped, 5);
  EXPECT_EQ(report.executions_dropped, 2);
  for (const char* error_class :
       {"short_line", "bad_timestamp", "bad_event_type", "output_on_start",
        "bad_output", "end_without_start", "start_without_end"}) {
    EXPECT_EQ(ClassCount(report, error_class), 1) << error_class;
  }

  // 5 line rejects + 2 assembly rejects were quarantined. Line-addressed
  // records point at the exact source bytes; assembly rejects are not
  // byte-addressed.
  ASSERT_EQ(report.quarantined.size(), 7u);
  std::string text(kMixedCorpus);
  for (const QuarantineRecord& record : report.quarantined) {
    if (record.byte_offset >= 0) {
      ASSERT_LE(record.byte_offset + static_cast<int64_t>(record.raw.size()),
                static_cast<int64_t>(text.size()));
      EXPECT_EQ(text.substr(static_cast<size_t>(record.byte_offset),
                            record.raw.size()),
                record.raw)
          << record.error_class;
    }
    EXPECT_FALSE(record.error_class.empty());
  }
}

TEST(RecoveryMatrixTest, LargeMixedCorpusIsThreadCountInvariant) {
  // Many shards' worth of interleaved good/bad blocks with unique instance
  // names; every artifact must stay byte-identical across thread counts.
  std::string text;
  for (int i = 0; i < 64; ++i) {
    std::string g = "g" + std::to_string(i);
    text += g + " A START " + std::to_string(i) + "\n";
    text += g + " A END " + std::to_string(i + 1) + " 7\n";
    text += "broken line " + std::to_string(i) + "\n";
    text += "lost" + std::to_string(i) + " B END 9\n";
  }
  std::string baseline;
  for (int threads : {1, 2, 8}) {
    IngestionReport report;
    auto log = LogReader::ParseText(
        text, Sharded(threads, RecoveryPolicy::kQuarantine, &report));
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    EXPECT_EQ(log->num_executions(), 64u);
    EXPECT_EQ(report.lines_skipped, 64);
    EXPECT_EQ(report.executions_dropped, 64);
    std::string fingerprint = ParseFingerprint(*log, report);
    if (threads == 1) {
      baseline = fingerprint;
    } else {
      EXPECT_EQ(fingerprint, baseline) << "threads=" << threads;
    }
  }
}

TEST(RecoveryMatrixTest, QuarantineSidecarHasVersionedHeader) {
  IngestionReport report;
  ASSERT_TRUE(LogReader::ParseText(kMixedCorpus,
                                   Sharded(1, RecoveryPolicy::kQuarantine,
                                           &report))
                  .ok());
  std::string sidecar = report.QuarantineText();
  EXPECT_EQ(sidecar.find("# procmine quarantine"), 0u);
  // One record per reject after the header lines.
  EXPECT_FALSE(report.SummaryText().empty());

  std::string path = ::testing::TempDir() + "/quarantine_sidecar.txt";
  ASSERT_TRUE(WriteQuarantineFile(path, report).ok());
  std::ifstream in(path, std::ios::binary);
  std::string on_disk((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, sidecar);
}

TEST(StreamingRecoveryTest, SkipsBadLinesAndPoisonedExecutions) {
  std::string text =
      "s1 A START 0\n"
      "s1 A END 1\n"
      "junk line\n"      // short_line -> dropped
      "s2 A START 0\n"
      "s2 A END bad\n"   // bad_timestamp -> dropped, leaving s2 unpaired
      "s3 B START 2\n"
      "s3 B END 5\n";

  // Strict streaming still fails.
  {
    auto stats =
        StreamLog(text, [](const Execution&, const ActivityDictionary&) {
          return Status::OK();
        });
    EXPECT_FALSE(stats.ok());
  }

  StreamOptions options;
  options.recovery = RecoveryPolicy::kSkip;
  IngestionReport report;
  options.report = &report;
  std::vector<std::string> delivered;
  auto stats = StreamLog(
      text,
      [&delivered](const Execution& exec, const ActivityDictionary&) {
        delivered.push_back(exec.name());
        return Status::OK();
      },
      options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // s2's surviving START never pairs, so its callback must not fire.
  EXPECT_EQ(delivered, (std::vector<std::string>{"s1", "s3"}));
  EXPECT_EQ(report.lines_skipped, 2);
  EXPECT_EQ(report.executions_dropped, 1);
  EXPECT_EQ(ClassCount(report, "short_line"), 1);
  EXPECT_EQ(ClassCount(report, "bad_timestamp"), 1);
  EXPECT_EQ(ClassCount(report, "start_without_end"), 1);
}

TEST(StreamingRecoveryTest, NonContiguousInstanceIsSkippedNotFatal) {
  std::string text =
      "x A START 0\n"
      "x A END 1\n"
      "y B START 2\n"
      "y B END 3\n"
      "x C START 4\n"   // x already finished: non-contiguous
      "x C END 5\n";
  StreamOptions options;
  options.recovery = RecoveryPolicy::kSkip;
  IngestionReport report;
  options.report = &report;
  std::vector<std::string> delivered;
  auto stats = StreamLog(
      text,
      [&delivered](const Execution& exec, const ActivityDictionary&) {
        delivered.push_back(exec.name());
        return Status::OK();
      },
      options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(delivered, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(ClassCount(report, "non_contiguous_instance"), 2);
}

/// Binary-salvage fixture: a 6-execution log with outputs and repeats.
EventLog SalvageDemoLog() {
  std::string text;
  for (int i = 0; i < 6; ++i) {
    std::string e = "b" + std::to_string(i);
    int t = 100 * i;
    text += e + " Alpha START " + std::to_string(t) + "\n";
    text += e + " Alpha END " + std::to_string(t + 3) + " 7 -3\n";
    text += e + " Beta START " + std::to_string(t + 4) + "\n";
    text += e + " Beta END " + std::to_string(t + 9) + " " +
            std::to_string(i) + "\n";
  }
  return LogReader::ParseText(text).ValueOrDie();
}

void ExpectPrefixOf(const EventLog& salvaged, const EventLog& original) {
  ASSERT_EQ(salvaged.dictionary().names(), original.dictionary().names());
  ASSERT_LE(salvaged.num_executions(), original.num_executions());
  for (size_t i = 0; i < salvaged.num_executions(); ++i) {
    const Execution& got = salvaged.execution(i);
    const Execution& want = original.execution(i);
    ASSERT_EQ(got.name(), want.name());
    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].activity, want[k].activity);
      EXPECT_EQ(got[k].start, want[k].start);
      EXPECT_EQ(got[k].end, want[k].end);
      EXPECT_EQ(OutputOf(got, k), OutputOf(want, k));
    }
  }
}

TEST(BinarySalvageTest, TruncatedFooterSalvagesEveryCompleteExecution) {
  EventLog original = SalvageDemoLog();
  std::string encoded = EncodeBinaryLog(original);
  std::string truncated = encoded.substr(0, encoded.size() - 2);

  EXPECT_FALSE(DecodeBinaryLog(truncated).ok());

  BinaryDecodeOptions options;
  options.recovery = RecoveryPolicy::kSkip;
  IngestionReport report;
  options.report = &report;
  auto salvaged = DecodeBinaryLog(truncated, options);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  // Every execution body is intact — only the CRC footer was cut — so the
  // salvage must keep all of them.
  EXPECT_EQ(salvaged->num_executions(), original.num_executions());
  ExpectPrefixOf(*salvaged, original);
  EXPECT_EQ(LogWriter::ToString(*salvaged), LogWriter::ToString(original));
  EXPECT_TRUE(report.salvage_attempted);
  EXPECT_EQ(report.salvaged_executions, 6);
  EXPECT_EQ(report.salvage_dropped_bytes, 2);
  EXPECT_TRUE(report.AnyLoss());
}

TEST(BinarySalvageTest, MidBodyTruncationKeepsTheCompletePrefix) {
  EventLog original = SalvageDemoLog();
  std::string encoded = EncodeBinaryLog(original);
  // Sweep cut points across the back half of the file (safely past the
  // dictionary): each salvage must yield a strict prefix of the original.
  for (size_t cut = encoded.size() / 2; cut < encoded.size(); cut += 5) {
    std::string truncated = encoded.substr(0, cut);
    ASSERT_FALSE(DecodeBinaryLog(truncated).ok()) << "cut=" << cut;

    BinaryDecodeOptions options;
    options.recovery = RecoveryPolicy::kSkip;
    IngestionReport report;
    options.report = &report;
    auto salvaged = DecodeBinaryLog(truncated, options);
    ASSERT_TRUE(salvaged.ok())
        << "cut=" << cut << ": " << salvaged.status().ToString();
    ExpectPrefixOf(*salvaged, original);
    EXPECT_TRUE(report.salvage_attempted) << "cut=" << cut;
    EXPECT_EQ(report.salvaged_executions,
              static_cast<int64_t>(salvaged->num_executions()));
    EXPECT_FALSE(report.error_classes.empty()) << "cut=" << cut;
  }
}

TEST(BinarySalvageTest, CorruptFooterClassesAsChecksumMismatch) {
  EventLog original = SalvageDemoLog();
  std::string corrupted = EncodeBinaryLog(original);
  corrupted.back() ^= 0x5a;  // flip a CRC byte; the body stays intact

  auto strict = DecodeBinaryLog(corrupted);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("checksum mismatch"),
            std::string::npos);

  BinaryDecodeOptions options;
  options.recovery = RecoveryPolicy::kQuarantine;
  IngestionReport report;
  options.report = &report;
  auto salvaged = DecodeBinaryLog(corrupted, options);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  // The data bytes all decode; only the footer (4 bytes) goes unconsumed.
  EXPECT_EQ(LogWriter::ToString(*salvaged), LogWriter::ToString(original));
  EXPECT_EQ(report.salvage_dropped_bytes, 4);
  EXPECT_EQ(ClassCount(report, "checksum_mismatch"), 1);
  // Quarantine captures the strict error for triage.
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].error_class, "checksum_mismatch");
  EXPECT_NE(report.quarantined[0].raw.find("checksum mismatch"),
            std::string::npos);
}

TEST(BinarySalvageTest, UnusableHeaderFailsEvenInRecoveryMode) {
  EventLog original = SalvageDemoLog();
  std::string encoded = EncodeBinaryLog(original);

  BinaryDecodeOptions options;
  options.recovery = RecoveryPolicy::kSkip;

  // Bad magic: there is no salvageable prefix.
  std::string bad_magic = encoded;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(DecodeBinaryLog(bad_magic, options).ok());

  // Cut inside the header/dictionary: ids would be meaningless.
  std::string beheaded = encoded.substr(0, 6);
  EXPECT_FALSE(DecodeBinaryLog(beheaded, options).ok());
}

TEST(RecoveryPolicyTest, NamesRoundTrip) {
  for (RecoveryPolicy policy : {RecoveryPolicy::kStrict, RecoveryPolicy::kSkip,
                                RecoveryPolicy::kQuarantine}) {
    auto parsed = ParseRecoveryPolicy(RecoveryPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseRecoveryPolicy("lenient").ok());
}

}  // namespace
}  // namespace procmine
