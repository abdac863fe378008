#include "log/xes.h"

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

namespace {

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> XmlUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '&') {
      out += text[i];
      continue;
    }
    size_t semi = text.find(';', i);
    if (semi == std::string_view::npos) {
      return Status::InvalidArgument("unterminated XML entity");
    }
    std::string_view entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") {
      out += '&';
    } else if (entity == "lt") {
      out += '<';
    } else if (entity == "gt") {
      out += '>';
    } else if (entity == "quot") {
      out += '"';
    } else if (entity == "apos") {
      out += '\'';
    } else {
      return Status::InvalidArgument("unknown XML entity: &" +
                                     std::string(entity) + ";");
    }
    i = semi;
  }
  return out;
}

/// Extracts the value of `attribute` from the text of one XML tag
/// (everything between '<' and '>'), or NotFound.
Result<std::string> TagAttribute(std::string_view tag,
                                 std::string_view attribute) {
  std::string needle = std::string(attribute) + "=\"";
  size_t pos = tag.find(needle);
  if (pos == std::string_view::npos) {
    return Status::NotFound("attribute not present");
  }
  size_t begin = pos + needle.size();
  size_t end = tag.find('"', begin);
  if (end == std::string_view::npos) {
    return Status::InvalidArgument("unterminated attribute value");
  }
  return XmlUnescape(tag.substr(begin, end - begin));
}

/// Finds the next element with the given name at or after *pos; returns the
/// full tag text (without angle brackets) and advances *pos past it, or
/// NotFound when no further such element exists before `limit`.
Result<std::string_view> NextTag(std::string_view xml, std::string_view name,
                                 size_t* pos, size_t limit) {
  std::string open = "<" + std::string(name);
  while (true) {
    size_t begin = xml.find(open, *pos);
    if (begin == std::string_view::npos || begin >= limit) {
      return Status::NotFound("no further element");
    }
    // Must be a whole-word match: next char is whitespace, '>' or '/'.
    char next = begin + open.size() < xml.size() ? xml[begin + open.size()]
                                                 : '\0';
    size_t end = xml.find('>', begin);
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("unterminated XML tag");
    }
    *pos = end + 1;
    if (next == ' ' || next == '\t' || next == '\n' || next == '>' ||
        next == '/') {
      return xml.substr(begin + 1, end - begin - 1);
    }
    // Prefix of a longer element name; keep scanning.
  }
}

}  // namespace

std::string ToXes(const EventLog& log) {
  std::ostringstream out;
  out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out << "<log xes.version=\"1.0\" xes.features=\"\">\n";
  out << "  <extension name=\"Concept\" prefix=\"concept\" "
         "uri=\"http://www.xes-standard.org/concept.xesext\"/>\n";
  out << "  <extension name=\"Lifecycle\" prefix=\"lifecycle\" "
         "uri=\"http://www.xes-standard.org/lifecycle.xesext\"/>\n";
  for (const Execution& exec : log.executions()) {
    out << "  <trace>\n";
    out << "    <string key=\"concept:name\" value=\""
        << XmlEscape(exec.name()) << "\"/>\n";
    for (size_t k = 0; k < exec.size(); ++k) {
      const ActivityInstance& inst = exec[k];
      const std::string name =
          XmlEscape(log.dictionary().Name(inst.activity));
      bool instantaneous = inst.start == inst.end;
      if (!instantaneous) {
        out << "    <event>\n";
        out << "      <string key=\"concept:name\" value=\"" << name
            << "\"/>\n";
        out << "      <string key=\"lifecycle:transition\" "
               "value=\"start\"/>\n";
        out << "      <int key=\"time:timestamp\" value=\"" << inst.start
            << "\"/>\n";
        out << "    </event>\n";
      }
      out << "    <event>\n";
      out << "      <string key=\"concept:name\" value=\"" << name
          << "\"/>\n";
      out << "      <string key=\"lifecycle:transition\" "
             "value=\"complete\"/>\n";
      out << "      <int key=\"time:timestamp\" value=\"" << inst.end
          << "\"/>\n";
      const std::span<const int64_t> output = exec.output(k);
      for (size_t i = 0; i < output.size(); ++i) {
        out << "      <int key=\"out" << i << "\" value=\"" << output[i]
            << "\"/>\n";
      }
      out << "    </event>\n";
    }
    out << "  </trace>\n";
  }
  out << "</log>\n";
  return out.str();
}

Result<EventLog> FromXes(const std::string& xml) {
  std::vector<Event> events;
  size_t trace_pos = 0;
  int64_t anonymous_traces = 0;
  while (true) {
    Result<std::string_view> trace_tag =
        NextTag(xml, "trace", &trace_pos, xml.size());
    if (!trace_tag.ok()) break;
    size_t trace_end = xml.find("</trace>", trace_pos);
    if (trace_end == std::string::npos) {
      return Status::InvalidArgument("unterminated <trace>");
    }

    // Trace name: first concept:name string directly in the trace that
    // appears before the first event.
    size_t first_event_probe = trace_pos;
    Result<std::string_view> first_event =
        NextTag(xml, "event", &first_event_probe, trace_end);
    size_t name_limit =
        first_event.ok() ? first_event_probe - first_event->size() - 2
                         : trace_end;
    std::string trace_name =
        StrFormat("trace_%lld", static_cast<long long>(anonymous_traces));
    size_t name_pos = trace_pos;
    while (true) {
      Result<std::string_view> tag =
          NextTag(xml, "string", &name_pos, name_limit);
      if (!tag.ok()) break;
      auto key = TagAttribute(*tag, "key");
      if (key.ok() && *key == "concept:name") {
        PROCMINE_ASSIGN_OR_RETURN(trace_name, TagAttribute(*tag, "value"));
        break;
      }
    }
    ++anonymous_traces;

    // Events.
    size_t event_pos = trace_pos;
    while (true) {
      Result<std::string_view> event_open =
          NextTag(xml, "event", &event_pos, trace_end);
      if (!event_open.ok()) break;
      size_t event_end = xml.find("</event>", event_pos);
      if (event_end == std::string::npos || event_end > trace_end) {
        return Status::InvalidArgument("unterminated <event>");
      }

      std::string activity;
      std::string transition = "complete";
      int64_t timestamp = 0;
      std::vector<std::pair<int, int64_t>> outputs;
      size_t attr_pos = event_pos;
      while (true) {
        // Scan <string> and <int> attribute elements inside the event.
        size_t string_probe = attr_pos;
        Result<std::string_view> string_tag =
            NextTag(xml, "string", &string_probe, event_end);
        size_t int_probe = attr_pos;
        Result<std::string_view> int_tag =
            NextTag(xml, "int", &int_probe, event_end);
        if (!string_tag.ok() && !int_tag.ok()) break;
        bool take_string =
            string_tag.ok() && (!int_tag.ok() || string_probe < int_probe);
        std::string_view tag = take_string ? *string_tag : *int_tag;
        attr_pos = take_string ? string_probe : int_probe;

        PROCMINE_ASSIGN_OR_RETURN(std::string key, TagAttribute(tag, "key"));
        PROCMINE_ASSIGN_OR_RETURN(std::string value,
                                  TagAttribute(tag, "value"));
        if (take_string) {
          if (key == "concept:name") activity = value;
          if (key == "lifecycle:transition") transition = value;
        } else {
          if (key == "time:timestamp") {
            PROCMINE_ASSIGN_OR_RETURN(timestamp, ParseInt64(value));
          } else if (StartsWith(key, "out")) {
            PROCMINE_ASSIGN_OR_RETURN(int64_t v, ParseInt64(value));
            auto index = ParseInt64(key.substr(3));
            if (index.ok()) {
              outputs.emplace_back(static_cast<int>(*index), v);
            }
          }
        }
      }
      event_pos = event_end + 8;  // past "</event>"

      if (activity.empty()) {
        return Status::InvalidArgument(
            "event without concept:name in trace '" + trace_name + "'");
      }
      Event event;
      event.process_instance = trace_name;
      event.activity = activity;
      event.timestamp = timestamp;
      if (transition == "start") {
        event.type = EventType::kStart;
        events.push_back(std::move(event));
      } else if (transition == "complete") {
        // Look back: does an unmatched start exist for this activity? The
        // EventLog assembler pairs FIFO, so emit a synthetic START only for
        // instantaneous (complete-only) events.
        bool has_open_start = false;
        int64_t balance = 0;
        for (const Event& e : events) {
          if (e.process_instance == trace_name && e.activity == activity) {
            balance += e.type == EventType::kStart ? 1 : -1;
          }
        }
        has_open_start = balance > 0;
        if (!has_open_start) {
          Event start = event;
          start.type = EventType::kStart;
          events.push_back(start);
        }
        event.type = EventType::kEnd;
        std::sort(outputs.begin(), outputs.end());
        for (const auto& [index, value] : outputs) {
          event.output.push_back(value);
        }
        events.push_back(std::move(event));
      } else {
        return Status::InvalidArgument("unsupported lifecycle transition: " +
                                       transition);
      }
    }
    trace_pos = trace_end + 8;  // past "</trace>"
  }
  return EventLog::FromEvents(events);
}

Status WriteXesFile(const EventLog& log, const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IOError("cannot open for writing: " + path);
  file << ToXes(log);
  if (!file) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EventLog> ReadXesFile(const std::string& path) {
  PROCMINE_SPAN("log.read_xes");
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (file.bad()) return Status::IOError("read failed: " + path);
  Result<EventLog> log = FromXes(buffer.str());
  if (log.ok()) {
    static obs::Counter* read =
        obs::MetricsRegistry::Get().GetCounter("log.executions_read");
    read->Add(static_cast<int64_t>(log->num_executions()));
  }
  return log;
}

}  // namespace procmine
