// Execution: one dictionary-encoded process execution, as a list of activity
// instances with (start, end) intervals.
//
// The paper's algorithms are defined on the relation "u terminates before v
// starts"; keeping intervals (instead of a flattened sequence) implements
// Section 2's observation that overlapping activities are necessarily
// independent and must not produce an edge. Instantaneous sequence logs are
// the degenerate case start == end.

#ifndef PROCMINE_LOG_EXECUTION_H_
#define PROCMINE_LOG_EXECUTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "log/activity_dictionary.h"

namespace procmine {

/// One activity occurrence within an execution.
struct ActivityInstance {
  ActivityId activity = -1;
  int64_t start = 0;
  int64_t end = 0;
  std::vector<int64_t> output;  ///< output parameters recorded at END
};

/// One complete process execution: activity instances ordered by start time.
class Execution {
 public:
  Execution() = default;
  explicit Execution(std::string name) : name_(std::move(name)) {}

  /// Builds an instantaneous execution from an activity-id sequence:
  /// the i-th activity gets start == end == i.
  static Execution FromSequence(std::string name,
                                const std::vector<ActivityId>& sequence);

  const std::string& name() const { return name_; }

  /// Appends an instance. Instances must be appended in start-time order;
  /// enforced with a check.
  void Append(ActivityInstance instance);
  /// Makes room for `n` instances, so `n` Appends allocate nothing.
  void Reserve(size_t n) { instances_.reserve(n); }

  size_t size() const { return instances_.size(); }
  bool empty() const { return instances_.empty(); }

  const ActivityInstance& operator[](size_t i) const { return instances_[i]; }
  const std::vector<ActivityInstance>& instances() const { return instances_; }

  /// The activity ids in start order (repeats preserved).
  std::vector<ActivityId> Sequence() const;

  /// True iff instance i terminates strictly before instance j starts —
  /// the precedence relation of Algorithm 1/2 step 2.
  bool TerminatesBefore(size_t i, size_t j) const {
    return instances_[i].end < instances_[j].start;
  }

  /// True iff some instance of `activity` occurs.
  bool Contains(ActivityId activity) const;

  /// Number of instances of `activity`.
  int64_t CountOf(ActivityId activity) const;

 private:
  std::string name_;
  std::vector<ActivityInstance> instances_;
};

}  // namespace procmine

#endif  // PROCMINE_LOG_EXECUTION_H_
