#include "log/event_log.h"

#include <algorithm>
#include <span>
#include <string_view>

#include "log/event_assembly.h"
#include "log/name_index.h"
#include "util/strings.h"

namespace procmine {

EventLog EventLog::FromCompactStrings(const std::vector<std::string>& execs) {
  std::vector<std::vector<std::string>> sequences;
  sequences.reserve(execs.size());
  for (const std::string& s : execs) {
    std::vector<std::string> seq;
    seq.reserve(s.size());
    for (char c : s) seq.emplace_back(1, c);
    sequences.push_back(std::move(seq));
  }
  return FromSequences(sequences);
}

EventLog EventLog::FromSequences(
    const std::vector<std::vector<std::string>>& execs) {
  EventLog log;
  int64_t counter = 0;
  for (const auto& seq : execs) {
    std::vector<ActivityId> ids;
    ids.reserve(seq.size());
    for (const std::string& name : seq) ids.push_back(log.dict_.Intern(name));
    log.AddExecution(Execution::FromSequence(
        StrFormat("exec_%lld", static_cast<long long>(counter++)), ids));
  }
  return log;
}

Result<EventLog> EventLog::FromEvents(const std::vector<Event>& events) {
  // Dictionary-encode into a compact batch (string_view keys borrow from
  // `events`, so no per-event string is built for the lookups), then run the
  // canonical assembly pass shared with the zero-copy file parser.
  CompactEventBatch batch;
  batch.events.reserve(events.size());
  NameIndex instance_ids(&batch.instance_names);
  NameIndex activity_ids(&batch.activity_names);
  for (const Event& e : events) {
    CompactEvent compact;
    compact.instance = instance_ids.Intern(e.process_instance);
    compact.activity = activity_ids.Intern(e.activity);
    compact.set_type(e.type);
    compact.timestamp = e.timestamp;
    compact.output_begin = static_cast<uint32_t>(batch.outputs.size());
    compact.output_count = static_cast<uint32_t>(e.output.size());
    batch.outputs.insert(batch.outputs.end(), e.output.begin(),
                         e.output.end());
    batch.events.push_back(compact);
  }
  return AssembleEventLog(batch);
}

std::vector<ExecutionSpan> EventLog::Shards(size_t num_shards) const {
  std::vector<ExecutionSpan> spans;
  const size_t m = executions_.size();
  if (m == 0 || num_shards == 0) return spans;
  num_shards = std::min(num_shards, m);
  // Greedy sweep: close a shard once it holds its proportional share of the
  // remaining instances, or once the tail must become one-execution shards.
  // Every shard ends up with at least one execution.
  int64_t remaining = TotalInstances();
  size_t begin = 0;
  int64_t acc = 0;
  size_t shards_left = num_shards;
  for (size_t i = 0; i < m && shards_left > 1; ++i) {
    acc += static_cast<int64_t>(executions_[i].size());
    const size_t execs_left = m - (i + 1);
    const bool quota_met =
        acc * static_cast<int64_t>(shards_left) >= remaining;
    if (quota_met || execs_left == shards_left - 1) {
      spans.push_back(ExecutionSpan{begin, i + 1});
      begin = i + 1;
      remaining -= acc;
      acc = 0;
      --shards_left;
    }
  }
  spans.push_back(ExecutionSpan{begin, m});
  return spans;
}

int64_t EventLog::TotalInstances() const {
  int64_t n = 0;
  for (const Execution& e : executions_) n += static_cast<int64_t>(e.size());
  return n;
}

std::vector<Event> EventLog::ToEvents() const {
  std::vector<Event> events;
  events.reserve(static_cast<size_t>(TotalInstances()) * 2);
  for (const Execution& exec : executions_) {
    // Emit START/END pairs; merge-order by timestamp within the execution.
    std::vector<Event> local;
    for (size_t i = 0; i < exec.size(); ++i) {
      const ActivityInstance& inst = exec[i];
      const std::string& name = dict_.Name(inst.activity);
      local.push_back(Event{exec.name(), name, EventType::kStart, inst.start,
                            {}});
      const std::span<const int64_t> output = exec.output(i);
      local.push_back(Event{exec.name(), name, EventType::kEnd, inst.end,
                            {output.begin(), output.end()}});
    }
    std::stable_sort(local.begin(), local.end(),
                     [](const Event& a, const Event& b) {
                       if (a.timestamp != b.timestamp) {
                         return a.timestamp < b.timestamp;
                       }
                       return a.type < b.type;
                     });
    for (auto& e : local) events.push_back(std::move(e));
  }
  return events;
}

}  // namespace procmine
