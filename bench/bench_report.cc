// Provenance-recording overhead harness: mines the same synthetic workload
// with and without a ProvenanceRecorder attached (and once more through the
// full BuildRunReport pipeline) and prints the relative cost. The ISSUE
// budget for the disabled path is < 2% on the Table 1 workload — the
// recorder off case must be indistinguishable from plain mining, since each
// instrumentation site is a single null-pointer branch.
//
// Output: a small table to stdout and BENCH_report.json next to the binary.
// PROCMINE_BENCH_QUICK=1 shrinks the workload for CI gates.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>

#include "bench_common.h"
#include "mine/miner.h"
#include "mine/provenance.h"
#include "obs/report.h"

namespace procmine::bench {
namespace {

double MeasureMs(int iterations, const std::function<void()>& fn) {
  // One warmup, then the best of `iterations` (minimum filters scheduler
  // noise better than the mean on a 1-2 core container).
  fn();
  double best = 1e18;
  for (int i = 0; i < iterations; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn();
    auto end = std::chrono::steady_clock::now();
    best = std::min(
        best,
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  return best;
}

int Run() {
  const bool quick = QuickMode();
  const int32_t vertices = quick ? 25 : 50;
  const size_t executions = quick ? 400 : 2000;
  const int iterations = quick ? 3 : 5;
  SyntheticWorkload w = MakeSyntheticWorkload(vertices, executions, 42);

  MinerOptions base;
  base.algorithm = MinerAlgorithm::kGeneralDag;
  base.num_threads = BenchThreads();

  double plain_ms = MeasureMs(iterations, [&] {
    PROCMINE_CHECK_OK(ProcessMiner(base).Mine(w.log).status());
  });

  double recorded_ms = MeasureMs(iterations, [&] {
    ProvenanceRecorder recorder;
    MinerOptions options = base;
    options.provenance = &recorder;
    PROCMINE_CHECK_OK(ProcessMiner(options).Mine(w.log).status());
    PROCMINE_CHECK_GT(recorder.num_candidates(), 0);
  });

  double report_ms = MeasureMs(iterations, [&] {
    obs::RunReportOptions options;
    options.miner.algorithm = MinerAlgorithm::kGeneralDag;
    options.miner.num_threads = base.num_threads;
    PROCMINE_CHECK_OK(obs::BuildRunReport(w.log, options).status());
  });

  double recorder_overhead = (recorded_ms - plain_ms) / plain_ms * 100.0;
  double report_overhead = (report_ms - plain_ms) / plain_ms * 100.0;

  std::printf("provenance overhead (%d vertices, %zu executions)\n", vertices,
              executions);
  std::printf("  %-28s %9.3f ms\n", "mine, recorder off", plain_ms);
  std::printf("  %-28s %9.3f ms  (%+.1f%%)\n", "mine, recorder attached",
              recorded_ms, recorder_overhead);
  std::printf("  %-28s %9.3f ms  (%+.1f%%)\n", "full BuildRunReport",
              report_ms, report_overhead);

  std::ofstream out("BENCH_report.json");
  out << StrFormat(
      "{\"vertices\": %d, \"executions\": %zu, \"plain_ms\": %.3f, "
      "\"recorded_ms\": %.3f, \"report_ms\": %.3f, "
      "\"recorder_overhead_pct\": %.2f, \"report_overhead_pct\": %.2f}\n",
      vertices, executions, plain_ms, recorded_ms, report_ms,
      recorder_overhead, report_overhead);
  return 0;
}

}  // namespace
}  // namespace procmine::bench

int main() { return procmine::bench::Run(); }
