// EventLog: a dictionary-encoded set of process executions — the input to
// every miner.

#ifndef PROCMINE_LOG_EVENT_LOG_H_
#define PROCMINE_LOG_EVENT_LOG_H_

#include <string>
#include <utility>
#include <vector>

#include "log/activity_dictionary.h"
#include "log/event.h"
#include "log/execution.h"
#include "util/result.h"

namespace procmine {

/// A contiguous range of execution indices [begin, end) — the unit of work
/// the parallel mining paths hand to one thread-pool shard.
struct ExecutionSpan {
  size_t begin = 0;
  size_t end = 0;
};

/// A log of m executions of one process, with a shared activity dictionary.
class EventLog {
 public:
  EventLog() = default;

  /// Takes `executions` whole, with no per-execution move.
  EventLog(ActivityDictionary dict, std::vector<Execution> executions)
      : dict_(std::move(dict)), executions_(std::move(executions)) {}

  /// Builds a log from compact test notation: one string per execution, one
  /// character per (instantaneous) activity. "ABCE" means A then B then C
  /// then E. This is the notation the paper's examples use.
  static EventLog FromCompactStrings(const std::vector<std::string>& execs);

  /// Builds a log from activity-name sequences (instantaneous activities).
  static EventLog FromSequences(
      const std::vector<std::vector<std::string>>& execs);

  /// Assembles a log from raw event records: groups by process instance,
  /// pairs START/END events (FIFO per activity name, so repeated activities
  /// in cyclic processes pair correctly), and orders instances by start
  /// time. Fails on unmatched or ill-ordered events.
  static Result<EventLog> FromEvents(const std::vector<Event>& events);

  ActivityDictionary& dictionary() { return dict_; }
  const ActivityDictionary& dictionary() const { return dict_; }

  void AddExecution(Execution exec) { executions_.push_back(std::move(exec)); }

  size_t num_executions() const { return executions_.size(); }
  const Execution& execution(size_t i) const { return executions_[i]; }
  const std::vector<Execution>& executions() const { return executions_; }

  /// Number of distinct activities seen.
  ActivityId num_activities() const { return dict_.size(); }

  /// Contiguous [begin, end) execution-index ranges covering the whole log,
  /// balanced by total instance count so parallel shards get comparable
  /// work even when execution lengths are skewed. Returns at most
  /// `num_shards` non-empty spans (fewer when the log is small); shard
  /// boundaries are deterministic for a given (log, num_shards).
  std::vector<ExecutionSpan> Shards(size_t num_shards) const;

  /// Total number of activity instances across all executions (each instance
  /// is two raw events).
  int64_t TotalInstances() const;

  /// Flattens back to raw event records (sorted by instance then time).
  std::vector<Event> ToEvents() const;

 private:
  ActivityDictionary dict_;
  std::vector<Execution> executions_;
};

}  // namespace procmine

#endif  // PROCMINE_LOG_EVENT_LOG_H_
