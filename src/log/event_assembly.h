// Compact event batches and the one START/END pairing rule.
//
// The text parser (LogReader::ParseText), EventLog::FromEvents (the XES
// reader's route) and the streaming scan (StreamLog) reduce their input to
// the same dictionary-encoded intermediate: name tables plus fixed-size
// event records whose variable-length pieces (names, output vectors) live
// in side pools. InstancePairer turns one process instance's events into
// an Execution; AssembleEventLog runs it over a whole batch in instance
// name order, the streaming scan over one instance at a time in file
// order. Every front end therefore pairs events, and words its pairing
// errors, the same way.
//
// The name tables are string_views borrowed from the caller (raw Event
// structs or a mapped file); they must stay alive across the call. Front
// ends fill them through a NameIndex (log/name_index.h).
// Activity names are copied into the target ActivityDictionary.

#ifndef PROCMINE_LOG_EVENT_ASSEMBLY_H_
#define PROCMINE_LOG_EVENT_ASSEMBLY_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "log/event.h"
#include "log/event_log.h"
#include "log/recovery.h"
#include "util/result.h"

namespace procmine {

/// One parsed event with every string replaced by a table index and outputs
/// referenced in a shared pool: 24 bytes instead of two heap strings and an
/// output vector. The event type takes the top bit of the instance index's
/// word, whose 31 bits cover every non-negative int32 a NameIndex hands out;
/// the output reference keeps its two full 32-bit words.
struct CompactEvent {
  uint32_t instance : 31 = 0;  ///< index into CompactEventBatch::instance_names
  uint32_t is_end : 1 = 0;     ///< 1 for an END event, 0 for a START
  int32_t activity = -1;       ///< index into CompactEventBatch::activity_names
  int64_t timestamp = 0;
  uint32_t output_begin = 0;   ///< first output value in the pool
  uint32_t output_count = 0;

  EventType type() const {
    return is_end != 0 ? EventType::kEnd : EventType::kStart;
  }
  void set_type(EventType type) { is_end = type == EventType::kEnd; }
};
static_assert(sizeof(CompactEvent) == 24);

/// A batch of compact events in log order, with borrowed name tables.
struct CompactEventBatch {
  std::vector<std::string_view> instance_names;  ///< by CompactEvent::instance
  std::vector<std::string_view> activity_names;  ///< by CompactEvent::activity
  std::vector<CompactEvent> events;              ///< original log order
  std::vector<int64_t> outputs;                  ///< shared output-value pool
};

/// How pairing treats executions whose events do not pair (see
/// InstancePairer::Pair); `report` may be null.
struct AssemblyRecovery {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;
  IngestionReport* report = nullptr;
};

/// Pairs the events of one process instance into an Execution: sorts
/// them by time (START before END at equal timestamps, otherwise log
/// order), hands each END the earliest open START of its activity (FIFO),
/// and rejects the instance when an END finds no open START
/// (end_without_start) or a START is left open (start_without_end).
/// Activity names are interned into the dictionary in pairing order.
/// The open-START queues are reused across instances.
class InstancePairer {
 public:
  /// `batch` supplies activity names, events and outputs and may grow
  /// between calls; both pointers are borrowed.
  InstancePairer(const CompactEventBatch* batch, ActivityDictionary* dict)
      : batch_(batch), dict_(dict) {}

  /// Pairs the events batch->events[i] for i in *order (one instance's
  /// events in log order; sorted in place) into *exec. Returns true on
  /// success. On a pairing fault, kStrict returns the error; kSkip and
  /// kQuarantine record the dropped execution in recovery.report (a
  /// QuarantineRecord with byte_offset -1 carrying the strict error text)
  /// and return false.
  Result<bool> Pair(std::string_view instance_name,
                    std::vector<uint32_t>* order,
                    const AssemblyRecovery& recovery, Execution* exec);

 private:
  /// FIFO of open START events for one activity; pop-from-front is an
  /// index bump.
  struct OpenStarts {
    struct Pending {
      int64_t timestamp;
      size_t seq;  // position in the instance's time-sorted order
    };
    std::vector<Pending> queue;
    size_t head = 0;
    bool empty() const { return head == queue.size(); }
  };

  const CompactEventBatch* batch_;
  ActivityDictionary* dict_;
  std::vector<ActivityId> temp_to_final_;  // batch activity -> dict id
  std::vector<OpenStarts> open_;           // by batch activity
  std::vector<int32_t> touched_;           // activities with a used queue
  /// A paired instance and the pooled outputs of its END event.
  struct Paired {
    ActivityInstance instance;
    uint32_t output_begin;
    uint32_t output_count;
  };
  std::vector<Paired> paired_;
};

/// Assembles a batch into an EventLog: groups events by process instance,
/// pairs each instance (instances in name order) with InstancePairer, and
/// orders each execution's activities by start time. The result is
/// deterministic — independent of how the batch was produced or sharded.
Result<EventLog> AssembleEventLog(const CompactEventBatch& batch);

/// As above, but malformed executions are handled per `recovery`. With a
/// kStrict policy this is exactly AssembleEventLog(batch).
Result<EventLog> AssembleEventLog(const CompactEventBatch& batch,
                                  const AssemblyRecovery& recovery);

}  // namespace procmine

#endif  // PROCMINE_LOG_EVENT_ASSEMBLY_H_
