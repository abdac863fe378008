// Mining run reports — the "why does the model look like this" artifact.
//
// A RunReport joins, for one mining run over one log:
//   * the mined model itself,
//   * per-candidate-edge provenance (support, first/last witnessing
//     execution, and for dropped edges the algorithm step that removed
//     them — see mine/provenance.h),
//   * the Definition 6/7 conformance audit with one verdict per execution
//     and the first violating event,
//   * a noise-threshold sensitivity table: the recorded support counters
//     re-thresholded at a sweep of T values (no re-mining), each row
//     annotated with the Section 6 error bounds and an "unstable" flag
//     where the worst-case bound exceeds a cutoff,
//   * the metrics snapshot of the run (obs/metrics.h), filtered of the few
//     counters that legitimately vary with the thread count.
//
// The report serializes as deterministic JSON (byte-identical for any
// --threads value), as annotated DOT (kept edges labeled with support,
// dropped candidates dashed gray with their drop reason), and as an aligned
// sensitivity table for terminals.

#ifndef PROCMINE_OBS_REPORT_H_
#define PROCMINE_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "log/recovery.h"
#include "mine/conformance.h"
#include "mine/miner.h"
#include "mine/provenance.h"
#include "mine/relations.h"
#include "obs/metrics.h"
#include "util/budget.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine::obs {

/// One row of the no-re-mining threshold sweep: the recorded step-2 support
/// counters re-cut at `threshold`, with the Section 6 bounds for that T.
struct NoiseSensitivityRow {
  int64_t threshold = 1;
  int64_t edges_kept = 0;     ///< candidates with support >= threshold
  int64_t edges_dropped = 0;  ///< candidates with support < threshold
  /// C(m,T) eps^T — P[a spurious edge survives]; 0 when the log looks clean.
  double spurious_bound = 0.0;
  /// C(m,m-T) (1/2)^(m-T) — P[a true independence becomes a dependency].
  double lost_bound = 0.0;
  /// max(spurious_bound, lost_bound) > RunReportOptions::unstable_cutoff:
  /// this T sits in the band where Section 6 cannot vouch for the model.
  bool unstable = false;
};

struct RunReportOptions {
  /// The mine: algorithm, noise threshold T, threads, chunk size and the
  /// optional run budget, read exactly as ProcessMiner reads them. The
  /// budget is also checked before the conformance audit and the
  /// sensitivity sweep: an exhausted budget skips those phases and records
  /// the cut in RunReport::degradation instead of failing the report.
  /// `provenance` and `degradation` are ignored: the report attaches its own
  /// recorder and records into RunReport::degradation.
  MinerOptions miner;
  /// Error-bound level above which a sweep row is flagged unstable.
  double unstable_cutoff = 0.05;
  /// Thresholds to sweep. Empty (default) picks >= 5 distinct values
  /// covering 1, 2, the mined T, the Section 6 optimum T*, and fractions of
  /// the execution count m.
  std::vector<int64_t> sweep;
  /// Optional ingestion report from recovery-mode parsing (log/recovery.h).
  /// Copied into the report so the JSON records what the reader dropped
  /// before mining even started. Borrowed; may be null.
  const IngestionReport* ingestion = nullptr;
  /// The log's relations (mine/relations.h) when the caller already has
  /// them, e.g. from --threshold=auto: the audit reads their followings and
  /// the sweep their epsilon. Borrowed; may be null, and then the first
  /// phase that runs computes them, so a report whose audit phases the
  /// budget skips never walks the log for them.
  const Relations* relations = nullptr;
};

/// The aggregated artifact. Build with BuildRunReport().
struct RunReport {
  std::string algorithm;  ///< resolved: "special_dag"|"general_dag"|"cyclic"
  int64_t noise_threshold = 1;
  int64_t num_executions = 0;
  int64_t num_activities = 0;  ///< base (unlabeled) activity count

  ProcessGraph model;  ///< the mined model, base id space

  /// Candidate-edge provenance, sorted by (from, to). For the cyclic miner
  /// these live in the occurrence-labeled space; see occurrence_labeled.
  std::vector<EdgeProvenance> edges;
  /// Names of the provenance id space (labeled names for the cyclic miner).
  std::vector<std::string> activity_names;
  /// True when `edges` uses "A#k" occurrence labels (Algorithm 3); then
  /// base_from/base_to below map each labeled id back.
  bool occurrence_labeled = false;
  /// Parallel to `edges` when occurrence_labeled: base activity of each
  /// labeled endpoint. Empty otherwise.
  std::vector<std::pair<ActivityId, ActivityId>> base_endpoints;

  ConformanceReport conformance;  ///< verdicts recorded per execution

  double epsilon = 0.0;  ///< estimated per-pair noise rate of the log
  std::vector<NoiseSensitivityRow> sensitivity;

  MetricsSnapshot metrics;  ///< thread-count-invariant subset of the run's

  /// Budget degradation record: set when the run budget expired and a phase
  /// was cut (partial model, skipped audit, or truncated sweep).
  DegradationInfo degradation;
  /// Ingestion recovery record, present when the log was read under a
  /// non-strict RecoveryPolicy (see RunReportOptions::ingestion).
  bool has_ingestion = false;
  IngestionReport ingestion;

  /// Deterministic JSON: fixed key order, sorted edges, %.6g doubles.
  /// Byte-identical for any thread count of the producing run.
  std::string ToJson() const;

  /// DOT over the provenance id space: kept edges solid, labeled with their
  /// support; dropped candidates dashed gray labeled "reason (support)".
  std::string ToAnnotatedDot() const;

  /// Aligned text table of `sensitivity` with an UNSTABLE marker column.
  std::string SensitivityTableText() const;

  /// Multi-line human-readable digest (counts per drop reason, conformance
  /// verdict tally, unstable threshold band).
  std::string SummaryText() const;
};

/// Mines `log` with provenance recording attached, audits the result
/// against the log, and assembles the full report. The mining itself is
/// identical to ProcessMiner::Mine with the same options.
Result<RunReport> BuildRunReport(const EventLog& log,
                                 const RunReportOptions& options = {});

}  // namespace procmine::obs

#endif  // PROCMINE_OBS_REPORT_H_
