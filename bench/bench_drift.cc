// Drift-detection harness: for every synthetic drift scenario, measures the
// detection latency (windows between the injected change and the first
// alert) and the monitor's window-evaluation throughput, then checks the
// acceptance bars — every structural scenario detected within one window of
// the cut, the gradual shift within its ramp, and the drift-free noisy
// control raising zero alerts at the Section 6 bounds.
//
// The scenario set runs several timed passes (7, or 3 under
// PROCMINE_BENCH_QUICK=1): one pass takes tens of milliseconds, too short
// for a single reading to resolve a throughput change, so the throughput
// is reported as the median windows/s over the passes with its min-max.
//
// Output: a table to stdout and BENCH_drift.json next to the binary. The
// exit code is the gate: non-zero when any scenario misses its bar, so the
// ctest BenchDriftQuick target catches regressions.
// PROCMINE_BENCH_QUICK=1 shrinks the stream lengths for CI.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mine/drift.h"
#include "synth/drift_scenario.h"

namespace procmine::bench {
namespace {

struct ScenarioResult {
  std::string name;
  int64_t num_executions = 0;
  int64_t num_windows = 0;
  int64_t num_alerts = 0;
  int64_t latency_windows = -1;  ///< windows past the cut window; -1 = miss
  int64_t max_latency = 0;       ///< the acceptance bar
  double elapsed_ms = 0.0;
  bool pass = false;
};

ScenarioResult RunScenario(DriftKind kind, int64_t executions, int64_t cut,
                           double swap_rate, int64_t ramp,
                           int64_t max_latency) {
  DriftScenarioOptions scenario;
  scenario.kind = kind;
  scenario.num_executions = executions;
  scenario.cut = cut;
  scenario.swap_rate = swap_rate;
  scenario.ramp_executions = ramp;
  auto log = GenerateDriftLog(scenario);
  PROCMINE_CHECK_OK(log.status());

  DriftOptions options;
  options.window_executions = 100;
  options.epsilon = swap_rate > 0 ? swap_rate : 0.05;

  auto start = std::chrono::steady_clock::now();
  DriftMonitor monitor(options);
  PROCMINE_CHECK_OK(monitor.AddLog(*log));
  PROCMINE_CHECK_OK(monitor.Finish());
  auto end = std::chrono::steady_clock::now();

  ScenarioResult result;
  result.name = std::string(DriftKindName(kind));
  if (swap_rate > 0) result.name += "+noise";
  if (ramp > 0) result.name += "+ramp";
  result.num_executions = executions;
  result.num_windows = monitor.num_windows();
  result.num_alerts = static_cast<int64_t>(monitor.alerts().size());
  result.max_latency = max_latency;
  result.elapsed_ms =
      std::chrono::duration<double, std::milli>(end - start).count();

  const int64_t cut_window = cut / options.window_executions;
  for (const DriftAlert& alert : monitor.alerts()) {
    if (alert.window_last >= cut) {
      result.latency_windows = alert.window_index - cut_window;
      break;
    }
  }
  result.pass = kind == DriftKind::kNone
                    ? result.num_alerts == 0
                    : result.latency_windows >= 0 &&
                          result.latency_windows <= max_latency;
  return result;
}

/// One pass over every scenario; the verdicts are the same in every pass.
std::vector<ScenarioResult> RunScenarios(int64_t executions, int64_t cut,
                                         int64_t ramp) {
  // Structural scenarios must alert in the first window that closes past
  // the cut (latency 0); the gradual shift may take its whole ramp.
  std::vector<ScenarioResult> results;
  results.push_back(RunScenario(DriftKind::kEdgeAdded, executions, cut,
                                /*swap_rate=*/0.0, /*ramp=*/0,
                                /*max_latency=*/0));
  results.push_back(RunScenario(DriftKind::kEdgeRemoved, executions, cut,
                                0.0, 0, 0));
  results.push_back(RunScenario(DriftKind::kConditionFlipped, executions,
                                cut, 0.0, 0, 0));
  results.push_back(RunScenario(DriftKind::kConditionFlipped, executions,
                                cut, /*swap_rate=*/0.05, 0, 0));
  results.push_back(RunScenario(DriftKind::kFrequencyShift, executions, cut,
                                0.0, 0, 0));
  results.push_back(RunScenario(DriftKind::kFrequencyShift, executions, cut,
                                0.0, ramp, ramp / 100));
  results.push_back(RunScenario(DriftKind::kNone, executions, cut,
                                /*swap_rate=*/0.05, 0, 0));
  return results;
}

int Run() {
  const bool quick = QuickMode();
  const int64_t executions = quick ? 400 : 2000;
  const int64_t cut = executions / 2;
  const int64_t ramp = quick ? 200 : 400;
  const int passes = quick ? 3 : 7;

  // The table shows the first pass's verdicts and each scenario's median
  // time over the passes.
  std::vector<ScenarioResult> results;
  std::vector<std::vector<double>> scenario_ms;
  std::vector<double> windows_per_sec;
  for (int pass = 0; pass < passes; ++pass) {
    std::vector<ScenarioResult> run = RunScenarios(executions, cut, ramp);
    double total_ms = 0.0;
    int64_t total_windows = 0;
    scenario_ms.resize(run.size());
    for (size_t i = 0; i < run.size(); ++i) {
      total_ms += run[i].elapsed_ms;
      total_windows += run[i].num_windows;
      scenario_ms[i].push_back(run[i].elapsed_ms);
    }
    windows_per_sec.push_back(
        total_ms > 0 ? static_cast<double>(total_windows) / (total_ms / 1e3)
                     : 0.0);
    if (pass == 0) results = std::move(run);
  }

  bool all_pass = true;
  std::printf("drift detection (W=100 tumbling, %lld executions, cut %lld, "
              "%d passes)\n",
              static_cast<long long>(executions),
              static_cast<long long>(cut), passes);
  std::printf("  %-26s %8s %8s %10s %10s  %s\n", "scenario", "windows",
              "alerts", "latency", "median ms", "verdict");
  for (size_t i = 0; i < results.size(); ++i) {
    ScenarioResult& r = results[i];
    r.elapsed_ms = Median(scenario_ms[i]);
    all_pass = all_pass && r.pass;
    std::string latency =
        r.latency_windows < 0
            ? "-"
            : StrFormat("%lld/%lld",
                        static_cast<long long>(r.latency_windows),
                        static_cast<long long>(r.max_latency));
    std::printf("  %-26s %8lld %8lld %10s %10.2f  %s\n", r.name.c_str(),
                static_cast<long long>(r.num_windows),
                static_cast<long long>(r.num_alerts), latency.c_str(),
                r.elapsed_ms, r.pass ? "pass" : "FAIL");
  }
  const auto [min_wps, max_wps] =
      std::minmax_element(windows_per_sec.begin(), windows_per_sec.end());
  const double median_wps = Median(windows_per_sec);
  std::printf("  windows/sec over %d passes: median %.0f (min %.0f, "
              "max %.0f)\n",
              passes, median_wps, *min_wps, *max_wps);

  std::ofstream out("BENCH_drift.json");
  out << "{\n  \"window_executions\": 100,\n";
  out << StrFormat("  \"num_executions\": %lld,\n",
                   static_cast<long long>(executions));
  out << StrFormat("  \"passes\": %d,\n", passes);
  out << StrFormat("  \"windows_per_sec\": %.0f,\n", median_wps);
  out << StrFormat("  \"windows_per_sec_min\": %.0f,\n", *min_wps);
  out << StrFormat("  \"windows_per_sec_max\": %.0f,\n", *max_wps);
  out << "  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    out << StrFormat(
        "    {\"scenario\": \"%s\", \"windows\": %lld, \"alerts\": %lld, "
        "\"latency_windows\": %lld, \"max_latency_windows\": %lld, "
        "\"elapsed_ms\": %.2f, \"pass\": %s}%s\n",
        r.name.c_str(), static_cast<long long>(r.num_windows),
        static_cast<long long>(r.num_alerts),
        static_cast<long long>(r.latency_windows),
        static_cast<long long>(r.max_latency), r.elapsed_ms,
        r.pass ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  out << "  ]\n}\n";
  return all_pass ? 0 : 1;
}

}  // namespace
}  // namespace procmine::bench

int main() { return procmine::bench::Run(); }
