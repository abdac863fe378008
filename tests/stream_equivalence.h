// Compares what StreamLog delivers with what LogReader::ParseText builds.
//
// The two cannot be compared byte for byte: the stream delivers executions
// in file order and assigns dictionary ids in that order, while the batch
// path orders executions by instance name. So both sides are spelled out
// by name: executions keyed by instance name, activities by activity name.

#ifndef PROCMINE_TESTS_STREAM_EQUIVALENCE_H_
#define PROCMINE_TESTS_STREAM_EQUIVALENCE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "log/event_log.h"
#include "log/streaming_reader.h"
#include "util/result.h"

namespace procmine {

/// One activity instance with its activity spelled out.
struct NamedInstance {
  std::string activity;
  int64_t start = 0;
  int64_t end = 0;
  std::vector<int64_t> output;

  bool operator==(const NamedInstance& o) const {
    return std::tie(activity, start, end, output) ==
           std::tie(o.activity, o.start, o.end, o.output);
  }
};

inline std::ostream& operator<<(std::ostream& os, const NamedInstance& i) {
  return os << i.activity << "[" << i.start << "," << i.end << "]";
}

/// Executions keyed by instance name.
using NamedExecutions = std::map<std::string, std::vector<NamedInstance>>;

inline std::vector<NamedInstance> Spell(const Execution& exec,
                                        const ActivityDictionary& dict) {
  std::vector<NamedInstance> spelled;
  for (size_t i = 0; i < exec.size(); ++i) {
    const ActivityInstance& inst = exec[i];
    const std::span<const int64_t> output = exec.output(i);
    spelled.push_back({dict.Name(inst.activity), inst.start, inst.end,
                       {output.begin(), output.end()}});
  }
  return spelled;
}

inline NamedExecutions ByName(const EventLog& log) {
  NamedExecutions named;
  for (const Execution& exec : log.executions()) {
    named[exec.name()] = Spell(exec, log.dictionary());
  }
  return named;
}

/// Streams `text` and spells out every delivered execution. An instance
/// delivered twice would collapse in the map, so it is an error here.
inline Result<NamedExecutions> StreamByName(std::string_view text) {
  NamedExecutions named;
  PROCMINE_RETURN_NOT_OK(
      StreamLog(text,
                [&named](const Execution& exec,
                         const ActivityDictionary& dict) {
                  if (!named.emplace(exec.name(), Spell(exec, dict)).second) {
                    return Status::Internal("instance delivered twice: " +
                                            exec.name());
                  }
                  return Status::OK();
                })
          .status());
  return named;
}

}  // namespace procmine

#endif  // PROCMINE_TESTS_STREAM_EQUIVALENCE_H_
