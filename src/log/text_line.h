// The text event grammar, one line at a time.
//
//   <process_instance> <activity> START|END <timestamp> [<out1> <out2> ...]
//
// Fields are separated by whitespace. Blank lines and lines whose first
// field starts with '#' carry no event. Output parameters may only appear
// on END events (Definition 2: O is the output of the activity if E = END
// and a null vector otherwise).
//
// ScanTextLine is the one reader of this grammar: the sharded batch parser
// (LogReader::ParseText) and the bounded-memory streaming scan (StreamLog)
// both call it, so both accept the same lines and reject the others with
// the same error class and message.

#ifndef PROCMINE_LOG_TEXT_LINE_H_
#define PROCMINE_LOG_TEXT_LINE_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "log/event_assembly.h"
#include "util/strings.h"

namespace procmine {

/// What one line holds.
enum class LineKind : uint8_t {
  kEvent,      ///< an event: names, event and pooled outputs are set
  kNoEvent,    ///< blank or comment line
  kMalformed,  ///< rejected: the LineFault says why; nothing was pooled
};

/// Why a line was rejected: the recovery error class (short_line,
/// bad_event_type, bad_timestamp, output_on_start, bad_output) and the
/// message without the "line N: " prefix.
struct LineFault {
  std::string_view error_class;
  std::string message;
};

namespace text_line_internal {

/// The std::isspace C-locale set without going through libc: space plus
/// the \t..\r control range.
inline bool IsFieldSpace(char c) {
  return c == ' ' || static_cast<unsigned char>(c - '\t') <= '\r' - '\t';
}

/// Strict integer scan for the hot path: digits with an optional '-', fully
/// consumed. Anything else (leading '+', whitespace, junk) falls back to
/// ParseInt64, which owns the exact dialect and error wording.
inline bool FastParseInt(std::string_view s, int64_t* out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// Advances *q past whitespace and returns the next field, or an empty
/// view when the line is drained.
inline std::string_view NextField(const char** q, const char* line_end) {
  const char* p = *q;
  while (p < line_end && IsFieldSpace(*p)) ++p;
  const char* f = p;
  while (p < line_end && !IsFieldSpace(*p)) ++p;
  *q = p;
  return std::string_view(f, static_cast<size_t>(p - f));
}

inline LineKind Malformed(LineFault* fault, std::string_view error_class,
                          std::string message) {
  fault->error_class = error_class;
  fault->message = std::move(message);
  return LineKind::kMalformed;
}

}  // namespace text_line_internal

/// Scans the line [begin, line_end) (no newline). On kEvent, *instance and
/// *activity alias the line, event->type()/timestamp/output_begin/
/// output_count are set (the caller assigns the name ids), and the output
/// values are appended to *outputs. On kMalformed, *outputs is left as it
/// was. The fields are carved in place: no per-line containers and no
/// string copies unless the line is rejected. Forced inline: it is the
/// body of both scan loops, and as a call its out-parameters would go
/// through memory on every line.
[[gnu::always_inline]] inline LineKind ScanTextLine(
    const char* begin, const char* line_end, std::string_view* instance,
    std::string_view* activity, CompactEvent* event,
    std::vector<int64_t>* outputs, LineFault* fault) {
  using text_line_internal::FastParseInt;
  using text_line_internal::Malformed;
  using text_line_internal::NextField;
  const char* q = begin;
  std::string_view fields[4];
  size_t nfields = 0;
  while (nfields < 4) {
    std::string_view field = NextField(&q, line_end);
    if (field.empty()) break;
    fields[nfields++] = field;
  }
  if (nfields == 0 || fields[0][0] == '#') return LineKind::kNoEvent;
  if (nfields < 4) {
    return Malformed(fault, "short_line",
                     StrFormat("expected at least 4 fields, got %zu", nfields));
  }
  if (fields[2] == "START") {
    event->set_type(EventType::kStart);
  } else if (fields[2] == "END") {
    event->set_type(EventType::kEnd);
  } else {
    return Malformed(fault, "bad_event_type",
                     StrFormat("event type must be START or END, got '%s'",
                               std::string(fields[2]).c_str()));
  }
  if (!FastParseInt(fields[3], &event->timestamp)) {
    auto ts = ParseInt64(fields[3]);
    if (!ts.ok()) {
      return Malformed(fault, "bad_timestamp",
                       StrFormat("bad timestamp: %s",
                                 ts.status().message().c_str()));
    }
    event->timestamp = *ts;
  }
  // Any remaining tokens are output parameters, parsed as encountered.
  event->output_begin = static_cast<uint32_t>(outputs->size());
  event->output_count = 0;
  for (;;) {
    std::string_view token = NextField(&q, line_end);
    if (token.empty()) break;
    if (event->type() == EventType::kStart) {
      return Malformed(fault, "output_on_start",
                       "output parameters are only valid on END events");
    }
    int64_t value = 0;
    if (!FastParseInt(token, &value)) {
      auto parsed = ParseInt64(token);
      if (!parsed.ok()) {
        // Unwind the values this line already pooled.
        outputs->resize(event->output_begin);
        return Malformed(fault, "bad_output",
                         StrFormat("bad output parameter '%s'",
                                   std::string(token).c_str()));
      }
      value = *parsed;
    }
    outputs->push_back(value);
    ++event->output_count;
  }
  *instance = fields[0];
  *activity = fields[1];
  return LineKind::kEvent;
}

}  // namespace procmine

#endif  // PROCMINE_LOG_TEXT_LINE_H_
