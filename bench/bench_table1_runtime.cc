// Regenerates Table 1: miner execution time (seconds) for synthetic
// datasets — graphs of 10/25/50/100 vertices, logs of 100/1000/10000
// executions. The paper ran on a 1994 RS/6000 250; absolute numbers differ,
// the claimed shape (linear in executions, mild growth in vertices) is what
// this harness demonstrates. Log sizes are also printed, mirroring the
// paper's note on 46-107 MB logs at 10000 executions.

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "log/writer.h"
#include "mine/miner.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

int main() {
  std::vector<int32_t> vertex_axis = {10, 25, 50, 100};
  std::vector<size_t> execution_axis = {100, 1000, 10000};
  if (QuickMode()) execution_axis = {100, 1000};

  std::printf("Table 1: execution times in seconds (synthetic datasets)\n");
  std::printf("%-12s", "executions");
  for (int32_t v : vertex_axis) std::printf(" | %7d v", v);
  std::printf("\n");

  std::vector<std::vector<int64_t>> log_bytes(
      execution_axis.size(), std::vector<int64_t>(vertex_axis.size(), 0));
  std::string cells_json;  // one JSON record per (executions, vertices) cell

  for (size_t row = 0; row < execution_axis.size(); ++row) {
    size_t m = execution_axis[row];
    std::printf("%-12zu", m);
    for (size_t col = 0; col < vertex_axis.size(); ++col) {
      int32_t n = vertex_axis[col];
      SyntheticWorkload w =
          MakeSyntheticWorkload(n, m, /*seed=*/1000 + n);
      log_bytes[row][col] = LogWriter::SerializedBytes(w.log);

      MinerOptions miner_options;
      miner_options.algorithm = MinerAlgorithm::kGeneralDag;
      miner_options.num_threads = BenchThreads();
      if (PhaseMode()) ResetPhaseSpans();
      StopWatch watch;
      auto mined = ProcessMiner(miner_options).Mine(w.log);
      double seconds = watch.ElapsedSeconds();
      PROCMINE_CHECK_OK(mined.status());
      std::printf(" | %9.3f", seconds);
      std::fflush(stdout);

      cells_json += StrFormat(
          "%s    {\"executions\": %zu, \"vertices\": %d, \"seconds\": %.6f",
          cells_json.empty() ? "" : ",\n", m, n, seconds);
      if (PhaseMode()) {
        cells_json += ", \"phases\": " + PhaseTotalsJson();
      }
      cells_json += "}";
    }
    std::printf("\n");
  }

  std::ofstream json("BENCH_table1.json");
  json << "{\n  \"bench\": \"table1_runtime\",\n  \"threads\": "
       << BenchThreads() << ",\n  \"quick_mode\": "
       << (QuickMode() ? "true" : "false") << ",\n  \"phases_recorded\": "
       << (PhaseMode() ? "true" : "false") << ",\n  \"results\": [\n"
       << cells_json << "\n  ]\n}\n";
  std::printf("wrote BENCH_table1.json\n");

  std::printf("\nLog sizes (MB of text serialization):\n");
  std::printf("%-12s", "executions");
  for (int32_t v : vertex_axis) std::printf(" | %7d v", v);
  std::printf("\n");
  for (size_t row = 0; row < execution_axis.size(); ++row) {
    std::printf("%-12zu", execution_axis[row]);
    for (size_t col = 0; col < vertex_axis.size(); ++col) {
      std::printf(" | %8.2fM",
                  static_cast<double>(log_bytes[row][col]) / 1e6);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(paper, RS/6000 250: 4.6-15.9s at 100 execs, 393-1385s at 10000; "
      "logs 46-107MB)\n");
  return 0;
}
