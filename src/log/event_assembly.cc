#include "log/event_assembly.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

namespace {

/// Stable sort tuned for per-execution event counts: executions are almost
/// always small, and std::stable_sort allocates a merge buffer per call —
/// insertion sort (inherently stable) avoids that for the common case.
template <typename T, typename Less>
void StableSortSmall(std::vector<T>* v, Less less) {
  if (v->size() > 64) {
    std::stable_sort(v->begin(), v->end(), less);
    return;
  }
  for (size_t i = 1; i < v->size(); ++i) {
    T value = std::move((*v)[i]);
    size_t j = i;
    while (j > 0 && less(value, (*v)[j - 1])) {
      (*v)[j] = std::move((*v)[j - 1]);
      --j;
    }
    (*v)[j] = std::move(value);
  }
}

}  // namespace

Result<bool> InstancePairer::Pair(std::string_view instance_name,
                                  std::vector<uint32_t>* order,
                                  const AssemblyRecovery& recovery,
                                  Execution* exec) {
  const CompactEventBatch& batch = *batch_;
  const size_t num_activities = batch.activity_names.size();
  if (open_.size() < num_activities) {
    open_.resize(num_activities);
    temp_to_final_.resize(num_activities, -1);
  }
  StableSortSmall(order, [&](uint32_t a, uint32_t b) {
    const CompactEvent& x = batch.events[a];
    const CompactEvent& y = batch.events[b];
    if (x.timestamp != y.timestamp) return x.timestamp < y.timestamp;
    // START before END at equal timestamps, so an instantaneous activity
    // pairs with itself.
    return x.is_end < y.is_end;
  });

  paired_.clear();
  std::string_view fail_class;  // empty = this instance paired cleanly
  std::string fail_detail;
  for (size_t seq = 0; seq < order->size(); ++seq) {
    const CompactEvent& e = batch.events[(*order)[seq]];
    OpenStarts& fifo = open_[static_cast<size_t>(e.activity)];
    if (e.type() == EventType::kStart) {
      if (fifo.queue.empty()) touched_.push_back(e.activity);
      fifo.queue.push_back({e.timestamp, seq});
      continue;
    }
    if (fifo.empty()) {
      fail_class = "end_without_start";
      fail_detail = StrFormat(
          "execution '%s': END without START for activity '%s'",
          std::string(instance_name).c_str(),
          std::string(batch.activity_names[static_cast<size_t>(e.activity)])
              .c_str());
      break;
    }
    paired_.push_back(Paired{
        ActivityInstance{e.activity,  // batch id; remapped below
                         fifo.queue[fifo.head++].timestamp, e.timestamp},
        e.output_begin, e.output_count});
  }
  if (fail_class.empty()) {
    // Report the earliest START (in time-sorted order) left unmatched.
    size_t first_seq = order->size();
    int32_t first_activity = -1;
    for (int32_t a : touched_) {
      const OpenStarts& fifo = open_[static_cast<size_t>(a)];
      if (!fifo.empty() && fifo.queue[fifo.head].seq < first_seq) {
        first_seq = fifo.queue[fifo.head].seq;
        first_activity = a;
      }
    }
    if (first_activity >= 0) {
      fail_class = "start_without_end";
      fail_detail = StrFormat(
          "execution '%s': START without END for activity '%s'",
          std::string(instance_name).c_str(),
          std::string(
              batch.activity_names[static_cast<size_t>(first_activity)])
              .c_str());
    }
  }
  for (int32_t a : touched_) {
    OpenStarts& fifo = open_[static_cast<size_t>(a)];
    fifo.queue.clear();
    fifo.head = 0;
  }
  touched_.clear();

  if (!fail_class.empty()) {
    if (recovery.policy == RecoveryPolicy::kStrict) {
      return Status::InvalidArgument(fail_detail);
    }
    if (recovery.report != nullptr) {
      ++recovery.report->executions_dropped;
      recovery.report->AddErrorClass(fail_class);
      if (recovery.policy == RecoveryPolicy::kQuarantine) {
        QuarantineRecord record;
        record.error_class = std::string(fail_class);
        record.raw = std::move(fail_detail);
        recovery.report->quarantined.push_back(std::move(record));
      }
    }
    return false;  // drop the whole execution
  }

  // Activity interning is deferred until the instance pairs, so dictionary
  // ids are assigned in pairing order. temp_to_final_ memoizes one Intern
  // per distinct activity.
  for (Paired& p : paired_) {
    ActivityId& final_id =
        temp_to_final_[static_cast<size_t>(p.instance.activity)];
    if (final_id < 0) {
      final_id = dict_->Intern(
          batch.activity_names[static_cast<size_t>(p.instance.activity)]);
    }
    p.instance.activity = final_id;
  }
  StableSortSmall(&paired_, [](const Paired& a, const Paired& b) {
    return a.instance.start < b.instance.start;
  });
  *exec = Execution(std::string(instance_name));
  exec->Reserve(paired_.size());
  for (const Paired& p : paired_) {
    exec->Append(p.instance,
                 std::span<const int64_t>(
                     batch.outputs.data() + p.output_begin, p.output_count));
  }
  return true;
}

Result<EventLog> AssembleEventLog(const CompactEventBatch& batch) {
  return AssembleEventLog(batch, AssemblyRecovery{});
}

Result<EventLog> AssembleEventLog(const CompactEventBatch& batch,
                                  const AssemblyRecovery& recovery) {
  PROCMINE_SPAN("log.assemble");
  const size_t num_instances = batch.instance_names.size();

  // Group event indices by process instance with a stable counting sort:
  // grouped[group_begin[i] .. group_begin[i+1]) are instance i's events in
  // log order.
  std::vector<uint32_t> group_begin(num_instances + 1, 0);
  for (const CompactEvent& e : batch.events) {
    ++group_begin[static_cast<size_t>(e.instance) + 1];
  }
  std::partial_sum(group_begin.begin(), group_begin.end(),
                   group_begin.begin());
  std::vector<uint32_t> grouped(batch.events.size());
  {
    std::vector<uint32_t> cursor(group_begin.begin(), group_begin.end() - 1);
    for (uint32_t i = 0; i < batch.events.size(); ++i) {
      grouped[cursor[static_cast<size_t>(batch.events[i].instance)]++] = i;
    }
  }

  // Instances are emitted in name order; ties cannot occur since names are
  // interned uniquely. A log written execution by execution in name order
  // interns its instances in that order already, and the check is one pass.
  std::vector<int32_t> by_name(num_instances);
  std::iota(by_name.begin(), by_name.end(), 0);
  const auto name_less = [&](int32_t a, int32_t b) {
    return batch.instance_names[static_cast<size_t>(a)] <
           batch.instance_names[static_cast<size_t>(b)];
  };
  if (!std::is_sorted(by_name.begin(), by_name.end(), name_less)) {
    std::sort(by_name.begin(), by_name.end(), name_less);
  }

  ActivityDictionary dict;
  std::vector<Execution> executions;
  executions.reserve(num_instances);
  InstancePairer pairer(&batch, &dict);
  std::vector<uint32_t> order;  // one instance's events
  for (int32_t inst_id : by_name) {
    const uint32_t begin = group_begin[static_cast<size_t>(inst_id)];
    const uint32_t end = group_begin[static_cast<size_t>(inst_id) + 1];
    if (begin == end) continue;
    order.assign(grouped.begin() + begin, grouped.begin() + end);
    Execution exec;
    PROCMINE_ASSIGN_OR_RETURN(
        bool kept,
        pairer.Pair(batch.instance_names[static_cast<size_t>(inst_id)],
                    &order, recovery, &exec));
    if (kept) executions.push_back(std::move(exec));
  }
  return EventLog(std::move(dict), std::move(executions));
}

}  // namespace procmine
