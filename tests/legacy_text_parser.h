// The original text-log parser, kept outside the library as a reference.
//
// It reads the grammar of log/text_line.h the straightforward way: getline
// over an istringstream, Trim + SplitWhitespace per line, two owning
// strings per Event. It serves two purposes:
//
//  * the oracle of ingest_equivalence_test: LogReader::ParseText and
//    StreamLog must accept what it accepts, build the same log, and fail
//    with the same message where it fails. ReadString therefore pairs
//    START/END events and orders executions on its own (a std::map keyed
//    by instance name, a FIFO per activity), never through the library's
//    AssembleEventLog, so an assembly fault cannot hide in both sides;
//  * ParseEvents + EventLog::FromEvents is the text_legacy / string_legacy
//    baseline of bench_ingest, whose quick mode gates the zero-copy path at
//    >= 3x its events/sec.

#ifndef PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_
#define PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "log/event.h"
#include "log/event_log.h"
#include "util/result.h"
#include "util/strings.h"

namespace procmine {
namespace legacy {

/// Parses raw event records from log text.
inline Result<std::vector<Event>> ParseEvents(const std::string& text) {
  std::vector<Event> events;
  std::istringstream stream(text);
  std::string line;
  int64_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(trimmed);
    if (fields.size() < 4) {
      return Status::InvalidArgument(
          StrFormat("line %lld: expected at least 4 fields, got %zu",
                    static_cast<long long>(line_no), fields.size()));
    }
    Event event;
    event.process_instance = fields[0];
    event.activity = fields[1];
    if (fields[2] == "START") {
      event.type = EventType::kStart;
    } else if (fields[2] == "END") {
      event.type = EventType::kEnd;
    } else {
      return Status::InvalidArgument(
          StrFormat("line %lld: event type must be START or END, got '%s'",
                    static_cast<long long>(line_no), fields[2].c_str()));
    }
    auto ts = ParseInt64(fields[3]);
    if (!ts.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %lld: bad timestamp: %s",
                    static_cast<long long>(line_no),
                    ts.status().message().c_str()));
    }
    event.timestamp = *ts;
    if (fields.size() > 4) {
      if (event.type == EventType::kStart) {
        return Status::InvalidArgument(StrFormat(
            "line %lld: output parameters are only valid on END events",
            static_cast<long long>(line_no)));
      }
      for (size_t i = 4; i < fields.size(); ++i) {
        auto value = ParseInt64(fields[i]);
        if (!value.ok()) {
          return Status::InvalidArgument(
              StrFormat("line %lld: bad output parameter '%s'",
                        static_cast<long long>(line_no), fields[i].c_str()));
        }
        event.output.push_back(*value);
      }
    }
    events.push_back(std::move(event));
  }
  return events;
}

/// Pairs one process instance's events (indices into `events`, log order)
/// into *exec by the pairing rule of log/event_assembly.h: events sorted by
/// time, START before END at equal timestamps, otherwise log order; each
/// END takes its activity's earliest open START; activities are interned in
/// pairing order and instances ordered by start time.
inline Status PairInstance(const std::string& name,
                           const std::vector<Event>& events,
                           std::vector<size_t> order, EventLog* log,
                           Execution* exec) {
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Event& x = events[a];
    const Event& y = events[b];
    if (x.timestamp != y.timestamp) return x.timestamp < y.timestamp;
    return x.type == EventType::kStart && y.type == EventType::kEnd;
  });
  // Open STARTs per activity: (timestamp, position in `order`).
  std::map<std::string, std::deque<std::pair<int64_t, size_t>>> open;
  std::vector<std::pair<const Event*, int64_t>> paired;  // END, start time
  for (size_t seq = 0; seq < order.size(); ++seq) {
    const Event& e = events[order[seq]];
    auto& fifo = open[e.activity];
    if (e.type == EventType::kStart) {
      fifo.emplace_back(e.timestamp, seq);
      continue;
    }
    if (fifo.empty()) {
      return Status::InvalidArgument(
          StrFormat("execution '%s': END without START for activity '%s'",
                    name.c_str(), e.activity.c_str()));
    }
    paired.emplace_back(&e, fifo.front().first);
    fifo.pop_front();
  }
  const std::string* unmatched = nullptr;
  size_t unmatched_seq = order.size();
  for (const auto& [activity, fifo] : open) {
    if (!fifo.empty() && fifo.front().second < unmatched_seq) {
      unmatched_seq = fifo.front().second;
      unmatched = &activity;
    }
  }
  if (unmatched != nullptr) {
    return Status::InvalidArgument(
        StrFormat("execution '%s': START without END for activity '%s'",
                  name.c_str(), unmatched->c_str()));
  }
  // Each instance with the outputs of its END event.
  std::vector<std::pair<ActivityInstance, const Event*>> instances;
  for (const auto& [end, start] : paired) {
    const ActivityId activity = log->dictionary().Intern(end->activity);
    instances.emplace_back(ActivityInstance{activity, start, end->timestamp},
                           end);
  }
  std::stable_sort(instances.begin(), instances.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.start < b.first.start;
                   });
  *exec = Execution(name);
  for (const auto& [inst, end] : instances) exec->Append(inst, end->output);
  return Status::OK();
}

/// Parses log text into an EventLog: executions in instance-name order,
/// each paired by PairInstance.
inline Result<EventLog> ReadString(const std::string& text) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<Event> events, ParseEvents(text));
  std::map<std::string, std::vector<size_t>> by_instance;
  for (size_t i = 0; i < events.size(); ++i) {
    by_instance[events[i].process_instance].push_back(i);
  }
  EventLog log;
  for (const auto& [name, order] : by_instance) {
    Execution exec;
    PROCMINE_RETURN_NOT_OK(PairInstance(name, events, order, &log, &exec));
    log.AddExecution(std::move(exec));
  }
  return log;
}

}  // namespace legacy
}  // namespace procmine

#endif  // PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_
