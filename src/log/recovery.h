// Recovery-mode ingestion: policies, quarantine records, and the
// IngestionReport.
//
// Every ingestion front end (text reader, streaming reader, binary log)
// accepts a RecoveryPolicy:
//
//   kStrict     fail the whole read on the first malformed input (the
//               pre-recovery behavior, and still the default);
//   kSkip       drop malformed lines / executions, keep counts;
//   kQuarantine like kSkip, but additionally capture each rejected input
//               (byte offset + error class + raw bytes) so it can be
//               written to a sidecar file for later triage.
//
// The IngestionReport aggregates what happened: per-error-class counts,
// skipped-line and dropped-execution totals, and the binary-salvage
// outcome. Reports and quarantine bytes are deterministic: the sharded
// text parser records skips per shard in file order and merges them by
// byte offset, so any --threads value produces identical artifacts.
//
// Error classes (the taxonomy is documented in docs/robustness.md):
//   text lines:  short_line, bad_event_type, bad_timestamp,
//                output_on_start, bad_output
//   assembly:    end_without_start, start_without_end
//   streaming:   the text-line and assembly classes (same code), plus
//                non_contiguous_instance
//   binary logs: truncated_body, checksum_mismatch, bad_dictionary,
//                semantic_error

#ifndef PROCMINE_LOG_RECOVERY_H_
#define PROCMINE_LOG_RECOVERY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.h"

namespace procmine {

/// How ingestion treats malformed input.
enum class RecoveryPolicy : int8_t {
  kStrict = 0,
  kSkip = 1,
  kQuarantine = 2,
};

/// "strict" / "skip" / "quarantine".
std::string_view RecoveryPolicyName(RecoveryPolicy policy);

/// Parses a policy name; error on anything else.
Result<RecoveryPolicy> ParseRecoveryPolicy(std::string_view name);

/// One rejected input, captured under kQuarantine.
struct QuarantineRecord {
  int64_t byte_offset = -1;  ///< offset of the line in the source; -1 when
                             ///< the reject is not byte-addressed (assembly,
                             ///< binary salvage)
  int64_t line = 0;          ///< 1-based line number; 0 when inapplicable
  std::string error_class;
  std::string raw;  ///< the offending line, or a short descriptor
};

/// What recovery-mode ingestion did to one input source.
struct IngestionReport {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;

  int64_t lines_total = 0;        ///< text lines seen (0 for binary inputs)
  int64_t events_parsed = 0;      ///< events that survived line parsing
  int64_t lines_skipped = 0;      ///< malformed lines dropped
  int64_t executions_dropped = 0; ///< executions rejected at assembly

  bool salvage_attempted = false;   ///< binary input needed the salvage path
  int64_t salvaged_executions = 0;  ///< executions recovered before the cut
  int64_t salvage_dropped_bytes = 0;  ///< bytes after the last good execution

  /// (error class, count), sorted by class name. Maintained sorted by
  /// AddErrorClass so serialization is deterministic.
  std::vector<std::pair<std::string, int64_t>> error_classes;

  /// Captured rejects, in source order. Populated only under kQuarantine.
  std::vector<QuarantineRecord> quarantined;

  /// True when any input was skipped, dropped, or salvaged around.
  bool AnyLoss() const {
    return lines_skipped > 0 || executions_dropped > 0 ||
           (salvage_attempted &&
            (salvage_dropped_bytes > 0 || salvaged_executions > 0));
  }

  /// Bumps the count for `error_class`, keeping error_classes sorted.
  void AddErrorClass(std::string_view error_class, int64_t count = 1);

  /// Counts one malformed text line dropped under `policy` (kSkip or
  /// kQuarantine); under kQuarantine also captures it.
  void SkipLine(RecoveryPolicy policy, std::string_view error_class,
                int64_t byte_offset, int64_t line, std::string_view raw);

  /// Folds `other` into this report (shard merge). `other`'s quarantine
  /// records are appended as-is; the caller merges shards in file order.
  void Merge(const IngestionReport& other);

  /// The quarantine sidecar: a versioned header followed by one
  /// tab-separated record per reject (offset, line, class, escaped raw
  /// bytes). Stable across thread counts.
  std::string QuarantineText() const;

  /// One-line-per-fact human summary ("skipped 3 lines (bad_timestamp: 2,
  /// short_line: 1) ...."). Empty string when nothing was lost.
  std::string SummaryText() const;
};

/// Writes report.QuarantineText() to `path` atomically.
Status WriteQuarantineFile(const std::string& path,
                           const IngestionReport& report);

}  // namespace procmine

#endif  // PROCMINE_LOG_RECOVERY_H_
