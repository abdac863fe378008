// Execution: one dictionary-encoded process execution, as a list of activity
// instances with (start, end) intervals.
//
// The paper's algorithms are defined on the relation "u terminates before v
// starts"; keeping intervals (instead of a flattened sequence) implements
// Section 2's observation that overlapping activities are necessarily
// independent and must not produce an edge. Instantaneous sequence logs are
// the degenerate case start == end.
//
// Layout: an ActivityInstance is the 24-byte {activity, start, end} record
// that Algorithms 1-3 read, held inline in one vector. The outputs o(u)
// recorded at END (Definition 2), which only Section 7's condition mining
// reads, live off the hot record in a sparse list with one entry per
// instance that recorded any; it allocates nothing when no instance did.

#ifndef PROCMINE_LOG_EXECUTION_H_
#define PROCMINE_LOG_EXECUTION_H_

#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "log/activity_dictionary.h"
#include "util/logging.h"

namespace procmine {

/// One activity occurrence within an execution.
struct ActivityInstance {
  ActivityId activity = -1;
  int64_t start = 0;
  int64_t end = 0;
};
static_assert(sizeof(ActivityInstance) == 24);
static_assert(std::is_trivially_copyable_v<ActivityInstance>);

/// The output parameters one instance recorded at END.
struct InstanceOutput {
  size_t instance = 0;          ///< index into Execution::instances()
  std::vector<int64_t> values;  ///< never empty
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
  void Append(ActivityInstance instance) {
    PROCMINE_CHECK_GE(instance.activity, 0);
    PROCMINE_CHECK_LE(instance.start, instance.end);
    if (!instances_.empty()) {
      PROCMINE_CHECK_LE(instances_.back().start, instance.start);
    }
    instances_.push_back(instance);
  }
  /// As above, with the outputs the instance recorded at END; an empty
  /// `output` records none.
  void Append(ActivityInstance instance, std::span<const int64_t> output) {
    Append(instance);
    if (!output.empty()) {
      outputs_.push_back(InstanceOutput{
          instances_.size() - 1,
          std::vector<int64_t>(output.begin(), output.end())});
    }
  }
  /// Makes room for `n` instances, so `n` Appends allocate nothing.
  void Reserve(size_t n) { instances_.reserve(n); }

  /// Replaces instance i's activity id; its times and outputs stay.
  void Relabel(size_t i, ActivityId activity) {
    PROCMINE_CHECK_GE(activity, 0);
    instances_[i].activity = activity;
  }

  size_t size() const { return instances_.size(); }
  bool empty() const { return instances_.empty(); }

  const ActivityInstance& operator[](size_t i) const { return instances_[i]; }
  const std::vector<ActivityInstance>& instances() const { return instances_; }

  /// The outputs instance i recorded at END; empty when it recorded none.
  std::span<const int64_t> output(size_t i) const;
  /// Every instance that recorded outputs, in instance order.
  const std::vector<InstanceOutput>& outputs() const { return outputs_; }

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
  std::vector<InstanceOutput> outputs_;  // sorted by instance
};

}  // namespace procmine

#endif  // PROCMINE_LOG_EXECUTION_H_
