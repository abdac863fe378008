// Conformance checking — Definitions 6 and 7 of the paper.
//
// Definition 6 (consistency of an execution R with graph G): R's activities
// form a subset V' of G's; the subgraph G' induced by R (edges of G whose
// endpoints R orders compatibly) is connected; R starts with the initiating
// and ends with the terminating activity; every node of V' is reachable from
// the initiating activity within G'; and no dependency of G is violated by
// R's ordering.
//
// Definition 7 (conformal graph): dependency completeness (every dependency
// of the log is a path), irredundancy (no path between independent
// activities), execution completeness (every execution is consistent).

#ifndef PROCMINE_MINE_CONFORMANCE_H_
#define PROCMINE_MINE_CONFORMANCE_H_

#include <string>
#include <vector>

#include "log/event_log.h"
#include "mine/relations.h"
#include "util/bit_matrix.h"
#include "util/status.h"
#include "workflow/process_graph.h"

namespace procmine {

/// One execution's Definition 6 verdict, in log order.
struct ExecutionVerdict {
  std::string execution;  ///< execution name
  bool consistent = true;
  std::string violation;  ///< first failure reason ("" when consistent)
  /// Instance index (start-time order) of the first violating event, or -1
  /// when the failure is structural (e.g. the graph has no unique source).
  int64_t first_violation_event = -1;
};

/// Definition 7 verdict with the violating evidence.
struct ConformanceReport {
  bool dependency_complete = true;
  bool irredundant = true;
  bool execution_complete = true;

  /// Dependencies (a, b) of the log (b depends on a) with no path a->b.
  std::vector<Edge> missing_dependencies;
  /// Ordered pairs (a, b) independent in the log but with a path a->b.
  std::vector<Edge> spurious_paths;
  /// (execution name, failure reason) for inconsistent executions.
  std::vector<std::pair<std::string, std::string>> inconsistent_executions;
  /// Per-execution verdicts in log order — only populated by
  /// CheckLog(log, /*record_verdicts=*/true); empty otherwise.
  std::vector<ExecutionVerdict> verdicts;

  bool conformal() const {
    return dependency_complete && irredundant && execution_complete;
  }

  /// Multi-line human-readable account.
  std::string Summary(const ActivityDictionary& dict) const;
};

/// Checks executions and logs against a fixed graph. Construction
/// precomputes the graph's reachability matrix, so per-execution checks are
/// O(len^2) pair tests plus one traversal.
class ConformanceChecker {
 public:
  /// `graph` must outlive the checker; its vertex ids must be the log's
  /// ActivityIds (true for mined graphs and engine-generated logs).
  explicit ConformanceChecker(const ProcessGraph* graph);

  /// Definition 6. OK iff `exec` is consistent with the graph.
  Status CheckExecution(const Execution& exec) const {
    return CheckExecution(exec, nullptr);
  }

  /// Definition 6 with evidence: on failure, `*first_violation_event` (when
  /// non-null) is set to the instance index of the first violating event,
  /// or -1 for structural failures that no single event causes.
  Status CheckExecution(const Execution& exec,
                        int64_t* first_violation_event) const;

  /// Definition 7 over the whole log. With `record_verdicts` the report
  /// additionally carries one ExecutionVerdict per execution in log order
  /// (the raw material of obs/report.h's conformance audit).
  ConformanceReport CheckLog(const EventLog& log,
                             bool record_verdicts = false) const {
    return CheckLog(log, record_verdicts, nullptr);
  }

  /// As above, reusing the caller's already-computed `relations` for the
  /// same log (its followings closure backs the dependency-completeness and
  /// irredundancy clauses) instead of running Relations::Compute again.
  /// `relations` may be null.
  ConformanceReport CheckLog(const EventLog& log, bool record_verdicts,
                             const Relations* relations) const;

 private:
  const ProcessGraph* graph_;
  BitMatrix reach_;  // path a ->+ b iff reach_.Test(a, b)
  // Initiating/terminating activities, isolated vertices ignored; if either
  // is not unique, endpoint_error_ carries the failure.
  NodeId source_ = -1;
  NodeId sink_ = -1;
  Status endpoint_error_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_CONFORMANCE_H_
