#include "log/transform.h"

#include <map>
#include <unordered_set>

#include "util/random.h"

namespace procmine {

namespace {

/// New log sharing `source`'s dictionary.
EventLog WithSameDictionary(const EventLog& source) {
  EventLog log;
  for (const std::string& name : source.dictionary().names()) {
    log.dictionary().Intern(name);
  }
  return log;
}

/// Rebuilds an execution keeping only instances passing `keep`; false if
/// the result would be empty.
bool FilterInstances(const Execution& exec,
                     const std::function<bool(const ActivityInstance&)>& keep,
                     Execution* out) {
  *out = Execution(exec.name());
  for (size_t i = 0; i < exec.size(); ++i) {
    if (keep(exec[i])) out->Append(exec[i], exec.output(i));
  }
  return !out->empty();
}

Result<std::unordered_set<ActivityId>> ResolveNames(
    const EventLog& log, const std::vector<std::string>& names) {
  std::unordered_set<ActivityId> ids;
  for (const std::string& name : names) {
    PROCMINE_ASSIGN_OR_RETURN(ActivityId id, log.dictionary().Find(name));
    ids.insert(id);
  }
  return ids;
}

}  // namespace

EventLog FilterExecutions(
    const EventLog& log,
    const std::function<bool(const Execution&)>& predicate) {
  EventLog out = WithSameDictionary(log);
  for (const Execution& exec : log.executions()) {
    if (predicate(exec)) out.AddExecution(exec);
  }
  return out;
}

Result<EventLog> ProjectActivities(const EventLog& log,
                                   const std::vector<std::string>& keep) {
  PROCMINE_ASSIGN_OR_RETURN(auto ids, ResolveNames(log, keep));
  EventLog out = WithSameDictionary(log);
  for (const Execution& exec : log.executions()) {
    Execution filtered;
    if (FilterInstances(
            exec,
            [&](const ActivityInstance& inst) {
              return ids.count(inst.activity) > 0;
            },
            &filtered)) {
      out.AddExecution(std::move(filtered));
    }
  }
  return out;
}

Result<EventLog> DropActivities(const EventLog& log,
                                const std::vector<std::string>& drop) {
  PROCMINE_ASSIGN_OR_RETURN(auto ids, ResolveNames(log, drop));
  EventLog out = WithSameDictionary(log);
  for (const Execution& exec : log.executions()) {
    Execution filtered;
    if (FilterInstances(
            exec,
            [&](const ActivityInstance& inst) {
              return ids.count(inst.activity) == 0;
            },
            &filtered)) {
      out.AddExecution(std::move(filtered));
    }
  }
  return out;
}

EventLog SampleExecutions(const EventLog& log, size_t count, uint64_t seed) {
  if (count >= log.num_executions()) return log;
  // Partial Fisher-Yates over the index vector.
  std::vector<size_t> indices(log.num_executions());
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + static_cast<size_t>(rng.Uniform(indices.size() - i));
    std::swap(indices[i], indices[j]);
  }
  std::sort(indices.begin(), indices.begin() + static_cast<ptrdiff_t>(count));
  EventLog out = WithSameDictionary(log);
  for (size_t i = 0; i < count; ++i) {
    out.AddExecution(log.execution(indices[i]));
  }
  return out;
}

EventLog TakeExecutions(const EventLog& log, size_t count) {
  EventLog out = WithSameDictionary(log);
  for (size_t i = 0; i < count && i < log.num_executions(); ++i) {
    out.AddExecution(log.execution(i));
  }
  return out;
}

std::pair<EventLog, EventLog> SplitLog(const EventLog& log, size_t pivot) {
  EventLog head = WithSameDictionary(log);
  EventLog tail = WithSameDictionary(log);
  for (size_t i = 0; i < log.num_executions(); ++i) {
    (i < pivot ? head : tail).AddExecution(log.execution(i));
  }
  return {std::move(head), std::move(tail)};
}

EventLog MergeLogs(const std::vector<const EventLog*>& logs) {
  EventLog out;
  for (const EventLog* log : logs) {
    // Remap ids by name into the merged dictionary.
    std::vector<ActivityId> remap(
        static_cast<size_t>(log->num_activities()));
    for (ActivityId a = 0; a < log->num_activities(); ++a) {
      remap[static_cast<size_t>(a)] =
          out.dictionary().Intern(log->dictionary().Name(a));
    }
    for (const Execution& exec : log->executions()) {
      Execution remapped = exec;
      for (size_t i = 0; i < exec.size(); ++i) {
        remapped.Relabel(i, remap[static_cast<size_t>(exec[i].activity)]);
      }
      out.AddExecution(std::move(remapped));
    }
  }
  return out;
}

EventLog DeduplicateSequences(const EventLog& log,
                              std::vector<int64_t>* multiplicity) {
  EventLog out = WithSameDictionary(log);
  std::map<std::vector<ActivityId>, size_t> position;
  std::vector<int64_t> counts;
  for (const Execution& exec : log.executions()) {
    std::vector<ActivityId> key = exec.Sequence();
    auto [it, inserted] = position.emplace(std::move(key), counts.size());
    if (inserted) {
      out.AddExecution(exec);
      counts.push_back(1);
    } else {
      ++counts[it->second];
    }
  }
  if (multiplicity != nullptr) *multiplicity = std::move(counts);
  return out;
}

}  // namespace procmine
