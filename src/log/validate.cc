#include "log/validate.h"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "log/name_index.h"
#include "util/strings.h"

namespace procmine {

std::string ToString(LogIssue::Kind kind) {
  switch (kind) {
    case LogIssue::Kind::kEndWithoutStart:
      return "END without START";
    case LogIssue::Kind::kStartWithoutEnd:
      return "START without END";
    case LogIssue::Kind::kNegativeDuration:
      return "negative duration";
    case LogIssue::Kind::kSimultaneousStart:
      return "simultaneous starts";
    case LogIssue::Kind::kEmptyExecution:
      return "empty execution";
  }
  return "unknown";
}

std::vector<LogIssue> ValidateEvents(const std::vector<Event>& events) {
  std::vector<LogIssue> issues;
  // Intern instance names (string_view keys, no copies) and track
  // unmatched-START counts per (instance, activity). Activities per instance
  // are few, so a first-seen-ordered vector beats a nested hash map and
  // keeps the report deterministic.
  using ActivityCounts = std::vector<std::pair<std::string_view, int64_t>>;
  std::vector<std::string_view> names;
  NameIndex instance_ids(&names);
  std::vector<ActivityCounts> instances;  // by instance id
  for (const Event& e : events) {
    const size_t id =
        static_cast<size_t>(instance_ids.Intern(e.process_instance));
    if (id == instances.size()) instances.emplace_back();
    ActivityCounts& counts = instances[id];
    auto slot = std::find_if(counts.begin(), counts.end(), [&](const auto& c) {
      return c.first == e.activity;
    });
    if (slot == counts.end()) {
      counts.emplace_back(e.activity, 0);
      slot = counts.end() - 1;
    }
    if (e.type == EventType::kStart) {
      ++slot->second;
    } else if (slot->second == 0) {
      issues.push_back({LogIssue::Kind::kEndWithoutStart, e.process_instance,
                        "activity '" + e.activity + "'"});
    } else {
      --slot->second;
    }
  }
  // Unmatched STARTs, instances in name order (activities in first-seen
  // order within each instance).
  std::vector<size_t> by_name(instances.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::sort(by_name.begin(), by_name.end(),
            [&](size_t a, size_t b) { return names[a] < names[b]; });
  for (size_t i : by_name) {
    for (const auto& [activity, n] : instances[i]) {
      if (n > 0) {
        issues.push_back({LogIssue::Kind::kStartWithoutEnd,
                          std::string(names[i]),
                          StrFormat("activity '%s' (%lld unmatched)",
                                    std::string(activity).c_str(),
                                    static_cast<long long>(n))});
      }
    }
  }
  return issues;
}

std::vector<LogIssue> ValidateLog(const EventLog& log) {
  std::vector<LogIssue> issues;
  for (const Execution& exec : log.executions()) {
    if (exec.empty()) {
      issues.push_back({LogIssue::Kind::kEmptyExecution, exec.name(), ""});
      continue;
    }
    for (size_t i = 0; i < exec.size(); ++i) {
      const ActivityInstance& inst = exec[i];
      if (inst.end < inst.start) {
        issues.push_back(
            {LogIssue::Kind::kNegativeDuration, exec.name(),
             "activity '" + log.dictionary().Name(inst.activity) + "'"});
      }
      if (i > 0 && exec[i - 1].start == inst.start) {
        issues.push_back(
            {LogIssue::Kind::kSimultaneousStart, exec.name(),
             StrFormat("'%s' and '%s' at t=%lld",
                       log.dictionary().Name(exec[i - 1].activity).c_str(),
                       log.dictionary().Name(inst.activity).c_str(),
                       static_cast<long long>(inst.start))});
      }
    }
  }
  return issues;
}

}  // namespace procmine
