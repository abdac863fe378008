#include <algorithm>

#include "workloads.h"

namespace perfbench {

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> kNames = {
      "setup_s",      "events_per_s", "peak_rss_mb",
      "ack_p50_ms",   "query_p50_ms", "recover_s",
  };
  return kNames;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"log.parse.self_s", "s"},
      {"log.assemble.self_s", "s"},
      {"store.open.self_s", "s"},
      {"store.load.self_s", "s"},
      {"store.loads", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.disk_bytes_per_event", "B"},
      {"mine.collect.self_s", "s"},
      {"mine.reduce.self_s", "s"},
      {"mine.validate.self_s", "s"},
      {"mine.other.self_s", "s"},
      {"mine.memo_hit_ratio", "ratio"},
      {"ooc.select.self_s", "s"},
      {"ooc.windows", "count"},
      {"workflow.serialize.self_s", "s"},
      {"serve.encode.self_s", "s"},
      {"log.binary_decode.self_s", "s"},
      {"mine.absorb.self_s", "s"},
      {"serve.journal.append.self_s", "s"},
      {"serve.journal.bytes_per_event", "B"},
      {"serve.query.self_s", "s"},
      {"serve.wait_s", "s"},
      {"serve.replay.self_s", "s"},
      {"unattributed_s", "s"},
      {"ack_p99_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void EmitPerLayer(const std::map<std::string, double>& values,
                  const std::map<std::string, std::string>& bases,
                  Outcome* outcome) {
  outcome->Note(StrFormat("%-32s %16s %-6s  %s", "layer metric", "value",
                          "unit", "base / samples"));
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto v = values.find(name);
    const double value = v == values.end() ? 0.0 : v->second;
    auto b = bases.find(name);
    const std::string base =
        b == bases.end() ? "not reached by this workload" : b->second;
    outcome->Add(name, value, unit);
    outcome->Note(StrFormat("%-32s %16.9g %-6s  %s", name.c_str(), value,
                            unit.c_str(), base.c_str()));
  }
}

}  // namespace perfbench
