// The benchmark's own tests: percentile, window and self-time arithmetic,
// the result line, and a tiny-size pass of every workload in both modes
// with its correctness check, each printing exactly the metrics and units
// that BENCHMARK.json lists. Run from the repository root (python3
// perfbench/run.py --selftest does that). Exits 1 on any failure.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.h"
#include "workloads.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++g_failures;                                                    \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using procmine::obs::SpanEvent;
using perfbench::SelfSecondsByName;

// Span times below are in seconds for readability; spans take nanoseconds.
SpanEvent Span(const char* name, double start_s, double dur_s, int tid = 0) {
  return SpanEvent{name, static_cast<int64_t>(start_s * 1e9),
                   static_cast<int64_t>(dur_s * 1e9), tid};
}

void TestPercentiles() {
  using perfbench::Median;
  using perfbench::Percentile;
  EXPECT(Percentile({}, 0.5) == 0.0);
  EXPECT(Percentile({7.0}, 0.99) == 7.0);
  // Nearest rank over 1..100: p50 is the 50th sample, p99 the 99th.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.50) == 50.0);
  EXPECT(Percentile(hundred, 0.99) == 99.0);
  EXPECT(Percentile(hundred, 1.00) == 100.0);
  // Below 100 samples p99 is the maximum.
  EXPECT(Percentile({3.0, 1.0, 2.0}, 0.99) == 3.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(perfbench::Mean({1.0, 2.0, 6.0}) == 3.0);
}

void TestWindows() {
  using perfbench::ByWindow;
  using perfbench::MedianOfWindowMedians;
  // [0, 4) in two windows of 2 s; a sample at or past the end lands in the
  // last window, one before the start in the first.
  const auto windows =
      ByWindow({{0.5, 1.0}, {1.9, 2.0}, {2.0, 3.0}, {4.0, 4.0}, {-0.1, 5.0}},
               4.0, 2);
  EXPECT(windows.size() == 2);
  EXPECT((windows[0] == std::vector<double>{1.0, 2.0, 5.0}));
  EXPECT((windows[1] == std::vector<double>{3.0, 4.0}));
  // Medians per window {2, 3.5, 9}; their median is 3.5. Empty windows are
  // skipped.
  EXPECT(Near(MedianOfWindowMedians({{1, 2, 3}, {}, {3, 4}, {9}}), 3.5));
  EXPECT(MedianOfWindowMedians({{}, {}}) == 0.0);
  // One slow window of three does not move the result.
  EXPECT(Near(MedianOfWindowMedians({{1, 3}, {90, 110}, {1, 3}}), 2.0));
}

void TestSelfTime() {
  // parent [0, 10) holds children [1, 3) and [4, 8); the second child holds
  // a grandchild [5, 6). Grandchild time is taken from the child only.
  auto self = SelfSecondsByName({
      Span("parent", 0, 10),
      Span("child", 1, 2),
      Span("child", 4, 4),
      Span("grandchild", 5, 1),
  });
  EXPECT(Near(self["parent"], 4.0));
  EXPECT(Near(self["child"], 5.0));
  EXPECT(Near(self["grandchild"], 1.0));

  // A child running past its parent's end is clipped to the parent.
  self = SelfSecondsByName({Span("parent", 0, 4), Span("late", 3, 3)});
  EXPECT(Near(self["parent"], 3.0));
  EXPECT(Near(self["late"], 3.0));

  // A child starting at the parent's start is still its child.
  self = SelfSecondsByName({Span("inner", 0, 1), Span("outer", 0, 2)});
  EXPECT(Near(self["outer"], 1.0));
  EXPECT(Near(self["inner"], 1.0));

  // Sequential roots and spans of other threads never nest.
  self = SelfSecondsByName({
      Span("a", 0, 2, /*tid=*/1),
      Span("b", 2, 2, /*tid=*/1),
      Span("c", 0.5, 1, /*tid=*/2),
  });
  EXPECT(Near(self["a"], 2.0));
  EXPECT(Near(self["b"], 2.0));
  EXPECT(Near(self["c"], 1.0));

  // A span starting inside a sibling is that sibling's child: x [1, 5)
  // holds y [2, 3) and z [4, 6), and z is clipped to x.
  self = SelfSecondsByName({
      Span("parent", 0, 10),
      Span("x", 1, 4),
      Span("y", 2, 1),
      Span("z", 4, 2),
  });
  EXPECT(Near(self["parent"], 6.0));
  EXPECT(Near(self["x"], 2.0));
  EXPECT(Near(self["z"], 2.0));

  const auto layers = perfbench::SelfSecondsByLayer(
      {{"a", 1.0}, {"b", 2.0}, {"unmapped", 4.0}},
      {{"a", "layer.one"}, {"b", "layer.one"}});
  EXPECT(layers.size() == 1);
  EXPECT(Near(layers.at("layer.one"), 3.0));
}

void TestResultJson() {
  perfbench::Outcome outcome;
  outcome.attempted = 3;
  outcome.Add("latency_ms", 1.25, "ms");
  EXPECT(perfbench::ResultJson(outcome) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  outcome.Fail("broken", 2);
  EXPECT(!outcome.correct);
  EXPECT(outcome.failed == 2);
}

/// Metric name -> unit, from one list of BENCHMARK.json.
using Units = std::map<std::string, std::string>;

/// The end-to-end and per-layer lists of BENCHMARK.json in the working
/// directory; both empty when it cannot be read.
std::pair<Units, Units> ManifestUnits() {
  std::ifstream file("BENCHMARK.json");
  std::stringstream text;
  text << file.rdbuf();
  auto manifest = procmine::json::Parse(text.str());
  std::pair<Units, Units> units;
  if (!manifest.ok()) return units;
  for (auto [key, into] : {std::pair{"end_to_end", &units.first},
                           std::pair{"per_layer", &units.second}}) {
    const procmine::json::Value* list = manifest->Find(key);
    if (list == nullptr) continue;
    for (const procmine::json::Value& metric : list->items()) {
      auto name = metric.GetString("name");
      auto unit = metric.GetString("unit");
      if (name.ok() && unit.ok()) (*into)[*name] = *unit;
    }
  }
  return units;
}

void TestTinyWorkload(const char* name,
                      perfbench::Outcome (*run)(const perfbench::RunConfig&),
                      bool trace, const Units& manifest) {
  perfbench::RunConfig config;
  config.workload = name;
  config.seed = 3;
  config.seconds = 0.2;
  config.trace = trace;
  config.tiny = true;
  config.work_dir = std::string(".bench_work/selftest-") + name + "-" +
                    std::to_string(::getpid());
  EXPECT(perfbench::ResetDir(config.work_dir));
  const perfbench::Outcome outcome = run(config);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);

  std::printf("-- %s trace=%d\n", name, trace ? 1 : 0);
  for (const std::string& line : outcome.notes) {
    std::printf("   %s\n", line.c_str());
  }
  EXPECT(outcome.correct);
  EXPECT(outcome.failed == 0);
  EXPECT(outcome.attempted >= 1);
  // Exactly the metrics BENCHMARK.json lists for this mode, in its units.
  Units printed;
  for (const perfbench::Metric& m : outcome.metrics) {
    printed[m.name] = m.unit;
    EXPECT(std::isfinite(m.value));
    if (!trace) EXPECT(m.value > 0);
  }
  EXPECT(printed.size() == outcome.metrics.size());
  EXPECT(printed == manifest);
}

}  // namespace

int main() {
  TestPercentiles();
  TestWindows();
  TestSelfTime();
  TestResultJson();
  const auto [end_to_end, per_layer] = ManifestUnits();
  EXPECT(end_to_end.size() == perfbench::EndToEndMetricNames().size());
  EXPECT(per_layer.size() == perfbench::PerLayerMetrics().size());
  for (bool trace : {false, true}) {
    const Units& manifest = trace ? per_layer : end_to_end;
    TestTinyWorkload("mine_text", perfbench::RunMineText, trace, manifest);
    TestTinyWorkload("mine_store", perfbench::RunMineStore, trace, manifest);
    TestTinyWorkload("serve_mixed", perfbench::RunServeMixed, trace,
                     manifest);
  }
  std::error_code ec;
  std::filesystem::remove(".bench_work", ec);  // only if now empty
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
