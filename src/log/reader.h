// LogReader: reads workflow logs in the procmine text format (the grammar
// is in log/text_line.h: one START/END event per line).
//
// ReadFile mmaps the file (MappedFile, buffered fallback) and ParseText
// scans string_views straight out of the mapping, interning names into
// dictionary ids as it goes; no Event vector is ever built. With
// options.num_threads > 1 the input is split at line boundaries and parsed
// in parallel with shard-local dictionaries, followed by a deterministic
// remap+merge, so the result and the error messages are byte-identical to
// single-threaded parsing for any thread count. AssembleEventLog then
// pairs each instance's START and END events (log/event_assembly.h).
//
// StreamLog (log/streaming_reader.h) reads the same grammar with the same
// line scanner and the same pairing, one execution at a time.

#ifndef PROCMINE_LOG_READER_H_
#define PROCMINE_LOG_READER_H_

#include <string>
#include <string_view>

#include "log/event_log.h"
#include "log/recovery.h"
#include "util/budget.h"
#include "util/result.h"

namespace procmine {

/// Knobs for the zero-copy ingestion path.
struct LogParseOptions {
  /// Parser shards. 1 = sequential; <= 0 = hardware concurrency. The parsed
  /// log is byte-identical for any value.
  int num_threads = 1;

  /// Minimum input bytes per parser shard: inputs smaller than
  /// 2 * min_shard_bytes stay single-shard so tiny logs skip the merge.
  /// Tests lower this to force multi-shard parses on small corpora; the
  /// result is byte-identical for any value.
  size_t min_shard_bytes = 256 * 1024;

  /// What to do with malformed lines / executions. kStrict fails the whole
  /// parse (the classic behavior); kSkip and kQuarantine drop the offending
  /// input and keep going. Because shard cuts are line-aligned and skip
  /// decisions are per line, the surviving log, the report, and the
  /// quarantine records are byte-identical for any num_threads.
  RecoveryPolicy recovery = RecoveryPolicy::kStrict;

  /// When non-null, filled with what recovery did (counts are global, byte
  /// offsets/lines in quarantine records are file-absolute). Merged-into,
  /// not reset — zero-initialize before the call.
  IngestionReport* report = nullptr;

  /// Optional ingestion memory budget. When set, every parse shard probes
  /// RSS once per probe_period_lines lines (amortized — an RSS read is a
  /// /proc round trip) so a huge log trips the budget during the parse, not
  /// after assembly has already blown past it. Crossing the high-water mark
  /// stops consuming input: under kStrict the parse fails with a pointer at
  /// the out-of-core path; under kSkip/kQuarantine the rest of the input is
  /// dropped like any other skipped input (error class "budget_truncated")
  /// and the cut is recorded in `degradation`. Borrowed; may be null.
  RunBudget* budget = nullptr;
  DegradationInfo* degradation = nullptr;

  /// Lines between RSS probes in each parse shard.
  uint32_t probe_period_lines = 4096;

  /// Fraction of --max-memory-mb treated as the ingestion high-water mark.
  double memory_high_water = 0.8;
};

class LogReader {
 public:
  /// Fused zero-copy parser: tokenizes `text` in place and interns names
  /// directly into the EventLog's dictionary.
  static Result<EventLog> ParseText(std::string_view text,
                                    const LogParseOptions& options = {});

  /// Reads and assembles a log file through the mmap + ParseText path.
  static Result<EventLog> ReadFile(const std::string& path,
                                   const LogParseOptions& options = {});
};

}  // namespace procmine

#endif  // PROCMINE_LOG_READER_H_
