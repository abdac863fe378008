// Ingestion throughput harness: legacy vs zero-copy paths for every reader.
//
// Generates a synthetic walker log (>= 100k events in quick mode), writes it
// as text and binary, and measures MB/s and events/sec through:
//   text_legacy     ifstream slurp + the legacy parser (tests/
//                   legacy_text_parser.h: ParseEvents + FromEvents)
//   text_mmap       MappedFile + fused string_view parser, 1 thread
//   text_mmap_tN    same, N threads (PROCMINE_BENCH_THREADS thread axis)
//   streaming       StreamLogFile (mmap + execution-at-a-time scan)
//   binary          ReadBinaryLogFile (mmap + varint decode)
//   segment         SegmentStore::Open + Segment(i) for every segment of a
//                   store of the same log, resident bound of one segment
//                   (the out-of-core miner's window decode)
// plus a parse-only string variant of the text paths, and writes
// BENCH_ingest.json so sessions can track the trajectory.
//
// The text_legacy/text_mmap pair on the same file is the acceptance metric
// for the zero-copy path (target: >= 3x events/sec single-threaded). The
// pair is timed in alternation, one run of each per round with the order
// swapped every round, and the gate reads the median per-round ratio, so
// host load that comes and goes slows both sides of a round alike. The
// other rows have no floor.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "../tests/legacy_text_parser.h"
#include "bench_common.h"
#include "log/binary_log.h"
#include "log/reader.h"
#include "log/segment_store.h"
#include "log/streaming_reader.h"
#include "log/writer.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

namespace {

struct Sample {
  std::string path;     // which reader
  double seconds;       // best of repeats (text_legacy/text_mmap: median)
  double mb_per_sec;    // input bytes / seconds
  double events_per_sec;
  int64_t events;       // raw START/END records ingested
};

double BestOf(int repeats, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < repeats; ++i) {
    StopWatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

// The legacy baseline: the legacy line parser, then FromEvents.
Status LegacyRead(const std::string& text) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<Event> events,
                            legacy::ParseEvents(text));
  return EventLog::FromEvents(events).status();
}

Sample MakeSample(const std::string& name, double seconds, size_t bytes,
                  int64_t events) {
  Sample s;
  s.path = name;
  s.seconds = seconds;
  s.mb_per_sec = static_cast<double>(bytes) / 1e6 / seconds;
  s.events_per_sec = static_cast<double>(events) / seconds;
  s.events = events;
  return s;
}

}  // namespace

int main() {
  const bool quick = QuickMode();
  // ~5.8 activity instances per execution at 60 vertices, so 10k executions
  // give ~116k raw events in quick mode — above the 100k acceptance floor.
  const size_t executions = quick ? 10000 : 40000;
  SyntheticWorkload w = MakeSyntheticWorkload(60, executions, /*seed=*/4242);
  const int64_t events = w.log.TotalInstances() * 2;

  const std::string dir = "bench_ingest_tmp";
  std::remove((dir + ".log").c_str());
  std::remove((dir + ".bin").c_str());
  const std::string text_path = dir + ".log";
  const std::string bin_path = dir + ".bin";
  const std::string store_dir = dir + ".store";
  std::filesystem::remove_all(store_dir);
  PROCMINE_CHECK_OK(LogWriter::WriteFile(w.log, text_path));
  PROCMINE_CHECK_OK(WriteBinaryLogFile(w.log, bin_path));
  // 2^15 events per segment: 4 segments in quick mode, about 15 in full.
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 1 << 15;
  int64_t store_bytes = 0;
  {
    auto writer = SegmentedLogWriter::Create(store_dir, store_options);
    PROCMINE_CHECK_OK(writer.status());
    PROCMINE_CHECK_OK(writer->AppendLog(w.log));
    PROCMINE_CHECK_OK(writer->Finish());
    store_bytes = writer->disk_bytes();
  }
  // A one-byte bound keeps exactly one segment resident, so every
  // Segment(i) below is a decode, as in an out-of-core mine.
  store_options.max_resident_bytes = 1;
  const std::string text = LogWriter::ToString(w.log);
  const size_t text_bytes = text.size();
  const size_t bin_bytes = EncodeBinaryLog(w.log).size();

  const int repeats = quick ? 3 : 5;
  std::vector<Sample> samples;

  // Legacy path: slurp + Event materialization + FromEvents.
  const auto time_legacy = [&] {
    StopWatch watch;
    std::ifstream file(text_path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    PROCMINE_CHECK_OK(LegacyRead(buffer.str()));
    return watch.ElapsedSeconds();
  };
  const auto time_mmap = [&] {
    StopWatch watch;
    PROCMINE_CHECK_OK(LogReader::ReadFile(text_path).status());
    return watch.ElapsedSeconds();
  };
  const int rounds = quick ? 7 : 9;
  std::vector<double> legacy_seconds, mmap_seconds, ratios;
  for (int round = 0; round < rounds; ++round) {
    double legacy = 0, mmap = 0;
    if (round % 2 == 0) {
      legacy = time_legacy();
      mmap = time_mmap();
    } else {
      mmap = time_mmap();
      legacy = time_legacy();
    }
    legacy_seconds.push_back(legacy);
    mmap_seconds.push_back(mmap);
    ratios.push_back(legacy / mmap);
  }
  const double speedup = Median(ratios);
  samples.push_back(
      MakeSample("text_legacy", Median(legacy_seconds), text_bytes, events));
  samples.push_back(
      MakeSample("text_mmap", Median(mmap_seconds), text_bytes, events));

  for (int threads : {2, 4}) {
    LogParseOptions options;
    options.num_threads = threads;
    samples.push_back(MakeSample(
        StrFormat("text_mmap_t%d", threads),
        BestOf(repeats,
               [&] {
                 PROCMINE_CHECK_OK(
                     LogReader::ReadFile(text_path, options).status());
               }),
        text_bytes, events));
  }

  // Parse-only variants (no file system): isolates tokenizer + assembly.
  samples.push_back(MakeSample(
      "string_legacy",
      BestOf(repeats,
             [&] { PROCMINE_CHECK_OK(LegacyRead(text)); }),
      text_bytes, events));
  samples.push_back(MakeSample(
      "string_fused",
      BestOf(repeats,
             [&] { PROCMINE_CHECK_OK(LogReader::ParseText(text).status()); }),
      text_bytes, events));

  samples.push_back(MakeSample(
      "streaming",
      BestOf(repeats,
             [&] {
               int64_t count = 0;
               auto stats = StreamLogFile(
                   text_path, [&](const Execution& e,
                                  const ActivityDictionary&) {
                     count += static_cast<int64_t>(e.size());
                     return Status::OK();
                   });
               PROCMINE_CHECK_OK(stats.status());
             }),
      text_bytes, events));

  samples.push_back(MakeSample(
      "binary",
      BestOf(repeats,
             [&] { PROCMINE_CHECK_OK(ReadBinaryLogFile(bin_path).status()); }),
      bin_bytes, events));

  samples.push_back(MakeSample(
      "segment",
      BestOf(repeats,
             [&] {
               auto store = SegmentStore::Open(store_dir, store_options);
               PROCMINE_CHECK_OK(store.status());
               for (size_t i = 0; i < store->num_segments(); ++i) {
                 PROCMINE_CHECK_OK(store->Segment(i).status());
               }
             }),
      static_cast<size_t>(store_bytes), events));

  std::printf("Ingestion throughput, %lld events (%zu byte text log)\n",
              static_cast<long long>(events), text_bytes);
  std::printf("%-14s %10s %10s %14s\n", "reader", "seconds", "MB/s",
              "events/sec");
  for (const Sample& s : samples) {
    std::printf("%-14s %10.4f %10.1f %14.0f\n", s.path.c_str(), s.seconds,
                s.mb_per_sec, s.events_per_sec);
  }
  std::printf(
      "text_mmap / text_legacy speedup: %.2fx (median of %d alternating "
      "rounds, %.2f-%.2fx)\n",
      speedup, rounds, *std::min_element(ratios.begin(), ratios.end()),
      *std::max_element(ratios.begin(), ratios.end()));

  std::ofstream json("BENCH_ingest.json");
  json << "{\n  \"benchmark\": \"ingest\",\n";
  json << StrFormat("  \"quick\": %s,\n  \"events\": %lld,\n",
                    quick ? "true" : "false",
                    static_cast<long long>(events));
  json << StrFormat("  \"text_bytes\": %zu,\n  \"binary_bytes\": %zu,\n",
                    text_bytes, bin_bytes);
  json << StrFormat("  \"speedup_text_mmap_vs_legacy\": %.3f,\n",
                    speedup);
  json << "  \"samples\": [\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    json << StrFormat(
        "    {\"reader\": \"%s\", \"seconds\": %.6f, \"mb_per_sec\": %.2f, "
        "\"events_per_sec\": %.0f}%s\n",
        s.path.c_str(), s.seconds, s.mb_per_sec, s.events_per_sec,
        i + 1 < samples.size() ? "," : "");
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_ingest.json\n");

  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
  std::filesystem::remove_all(store_dir);
  // Quick mode doubles as the ctest regression gate: fail loudly if the
  // zero-copy path ever drops below the 3x acceptance floor.
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "REGRESSION: text_mmap %.2fx text_legacy (floor: 3x)\n",
                 speedup);
    return 1;
  }
  return 0;
}
