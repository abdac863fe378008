// IncrementalMiner: Algorithm 2 as a streaming computation.
//
// Section 1 motivates keeping the model current as new executions complete
// ("allow the evolution of the current process model into future versions
// ... by incorporating feedback from successful process executions").
// Re-running the batch miner over the whole log per update costs O(m n^3);
// this class keeps the log's sufficient statistics — per-edge execution
// counters (which also power the Section 6 noise threshold) and the
// multiset of distinct activity sets (all that steps 5-6 depend on) — so an
// update costs O(len log len + its precedence pairs) and a model query
// costs only the structural steps over DISTINCT activity sets, independent
// of how many executions were absorbed.

#ifndef PROCMINE_MINE_INCREMENTAL_H_
#define PROCMINE_MINE_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "mine/edge_collector.h"
#include "util/budget.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

struct IncrementalMinerOptions {
  /// Section 6 noise threshold applied at query time (so it can be changed
  /// between queries without replaying the log).
  int64_t noise_threshold = 1;
};

/// Accumulates executions and mines the current conformal DAG on demand.
class IncrementalMiner {
 public:
  explicit IncrementalMiner(IncrementalMinerOptions options = {})
      : options_(options) {}

  /// Absorbs one instantaneous execution given as activity names.
  Status AddSequence(const std::vector<std::string>& sequence);

  /// Absorbs one execution whose ids refer to `dict` (names are remapped
  /// into the miner's own dictionary). Repeated activities are rejected —
  /// the streaming miner covers the acyclic setting.
  Status AddExecution(const Execution& exec, const ActivityDictionary& dict);

  /// Absorbs a whole log.
  Status AddLog(const EventLog& log);

  /// AddLog under a budget: absorbs executions in log order until `budget`
  /// trips (deadline / memory via Check(), the execution cap via
  /// OverExecutionLimit against the miner's running total), recording the
  /// first cut in `degradation` and the number of executions actually
  /// absorbed in `applied`. A budget cut is NOT an error — the absorbed
  /// prefix stands and the caller reads `degradation` / `applied` (the CLI
  /// exit-4 contract). Null budget absorbs everything; null degradation /
  /// applied are allowed. A malformed execution (e.g. repeated activities)
  /// aborts with its error after `applied` good executions.
  Status AddLogBudgeted(const EventLog& log, RunBudget* budget,
                        DegradationInfo* degradation, int64_t* applied);

  /// Exact inverse of AddSequence: decrements the execution's precedence
  /// pairs and its activity-set counter, so the miner's state equals what
  /// it would have been had the execution never been absorbed (the window-
  /// eviction primitive for drift monitoring). Every name must already be
  /// interned and the execution must have been absorbed — removing
  /// something never added is FailedPrecondition and leaves the state
  /// untouched.
  Status RemoveSequence(const std::vector<std::string>& sequence);

  /// Exact inverse of AddExecution (same contract as RemoveSequence).
  Status RemoveExecution(const Execution& exec,
                         const ActivityDictionary& dict);

  /// Mines the model over everything absorbed so far. O(distinct activity
  /// sets * n^3) worst case; cached until the next Add*.
  Result<ProcessGraph> CurrentGraph() const;

  /// Changes the noise threshold for subsequent queries.
  void SetNoiseThreshold(int64_t threshold);

  size_t num_executions() const { return num_executions_; }
  ActivityId num_activities() const { return dict_.size(); }
  const ActivityDictionary& dictionary() const { return dict_; }

  /// Number of distinct activity sets seen (the query-cost driver).
  size_t num_distinct_activity_sets() const { return set_counts_.size(); }

  /// Live precedence counters keyed by PackEdge(from, to) in this miner's
  /// id space — the support trajectories the drift monitor watches.
  const EdgeCounts& edge_counts() const { return counts_; }

  /// Support of one precedence pair (0 when never observed / fully
  /// evicted). Ids are in this miner's dictionary.
  int64_t EdgeSupport(ActivityId from, ActivityId to) const;

 private:
  Status Absorb(const Execution& exec);
  Status Evict(const Execution& exec);

  IncrementalMinerOptions options_;
  ActivityDictionary dict_;
  EdgeCounts counts_;
  /// Distinct activity sets (sorted id vectors) -> executions seen with it.
  std::map<std::vector<ActivityId>, int64_t> set_counts_;
  size_t num_executions_ = 0;

  // Query cache, invalidated by version bumps on every Add*.
  mutable uint64_t version_ = 0;
  mutable uint64_t cached_version_ = ~uint64_t{0};
  mutable Result<ProcessGraph> cached_graph_{ProcessGraph()};
};

}  // namespace procmine

#endif  // PROCMINE_MINE_INCREMENTAL_H_
