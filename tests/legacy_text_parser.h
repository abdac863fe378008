// The original text-log parser, kept outside the library as a reference.
//
// It reads the grammar of log/text_line.h the straightforward way: getline
// over an istringstream, Trim + SplitWhitespace per line, two owning
// strings per Event, then EventLog::FromEvents. It serves two purposes:
//
//  * the oracle of ingest_equivalence_test: LogReader::ParseText and
//    StreamLog must accept what it accepts, build the same log, and fail
//    with the same message where it fails;
//  * the text_legacy / string_legacy baseline of bench_ingest, whose quick
//    mode gates the zero-copy path at >= 3x its events/sec.

#ifndef PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_
#define PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_

#include <sstream>
#include <string>
#include <string_view>
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

/// Parses log text and assembles it with EventLog::FromEvents.
inline Result<EventLog> ReadString(const std::string& text) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<Event> events, ParseEvents(text));
  return EventLog::FromEvents(events);
}

}  // namespace legacy
}  // namespace procmine

#endif  // PROCMINE_TESTS_LEGACY_TEXT_PARSER_H_
