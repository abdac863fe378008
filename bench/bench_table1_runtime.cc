// Regenerates Table 1: miner execution time (seconds) for synthetic
// datasets — graphs of 10/25/50/100 vertices, logs of 100/1000/10000
// executions. The paper ran on a 1994 RS/6000 250; absolute numbers differ,
// the claimed shape (linear in executions, mild growth in vertices) is what
// this harness demonstrates. Log sizes are also printed, mirroring the
// paper's note on 46-107 MB logs at 10000 executions.
//
// Every cell also gets a traced second run that splits the time by phase:
// ingest (reading the cell's log back from its text file), collect (step 2,
// edges.collect) and reduce (steps 5-6, general_dag.reduce), printed with
// the number D of distinct activity sets, which is what steps 5-6 reduce.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "log/reader.h"
#include "log/writer.h"
#include "mine/miner.h"
#include "util/id_set_table.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

namespace {

// One cell's phase split: see the file comment.
struct CellPhases {
  size_t distinct_sets = 0;
  double ingest_ms = 0;
  double collect_ms = 0;
  double reduce_ms = 0;
};

double SpanMs(const char* name) {
  for (const obs::SpanStats& s : obs::TraceRecorder::Get().Stats()) {
    if (s.name == name) return static_cast<double>(s.total_ns) / 1e6;
  }
  return 0;
}

// Writes `log` as text, reads it back (ingest), then mines the read log
// with tracing on. Leaves the spans recorded for PhaseTotalsJson.
CellPhases MeasurePhases(const EventLog& log,
                         const MinerOptions& miner_options) {
  CellPhases phases;
  IdSetTable sets;
  std::vector<ActivityId> present;
  for (const Execution& exec : log.executions()) {
    present = exec.Sequence();
    std::sort(present.begin(), present.end());
    sets.Insert(present);
  }
  phases.distinct_sets = sets.size();

  const std::string path =
      (std::filesystem::temp_directory_path() /
       StrFormat("procmine_table1_%d.log", static_cast<int>(getpid())))
          .string();
  PROCMINE_CHECK_OK(LogWriter::WriteFile(log, path));
  StopWatch watch;
  Result<EventLog> read = LogReader::ReadFile(path);
  phases.ingest_ms = watch.ElapsedSeconds() * 1e3;
  std::filesystem::remove(path);
  PROCMINE_CHECK_OK(read.status());

  ResetPhaseSpans();
  PROCMINE_CHECK_OK(ProcessMiner(miner_options).Mine(*read).status());
  obs::SetTracingEnabled(false);
  phases.collect_ms = SpanMs("edges.collect");
  phases.reduce_ms = SpanMs("general_dag.reduce");
  return phases;
}

}  // namespace

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
  std::vector<std::vector<CellPhases>> cell_phases(
      execution_axis.size(),
      std::vector<CellPhases>(vertex_axis.size(), CellPhases()));
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
      StopWatch watch;
      auto mined = ProcessMiner(miner_options).Mine(w.log);
      double seconds = watch.ElapsedSeconds();
      PROCMINE_CHECK_OK(mined.status());
      std::printf(" | %9.3f", seconds);
      std::fflush(stdout);
      const CellPhases phases = MeasurePhases(w.log, miner_options);
      cell_phases[row][col] = phases;

      cells_json += StrFormat(
          "%s    {\"executions\": %zu, \"vertices\": %d, \"seconds\": %.6f, "
          "\"distinct_sets\": %zu, \"ingest_ms\": %.3f, "
          "\"collect_ms\": %.3f, \"reduce_ms\": %.3f",
          cells_json.empty() ? "" : ",\n", m, n, seconds,
          phases.distinct_sets, phases.ingest_ms, phases.collect_ms,
          phases.reduce_ms);
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

  std::printf(
      "\nPhases per cell (ms, traced second run; D = distinct activity "
      "sets):\n");
  std::printf("%-12s %8s %8s %10s %10s %10s\n", "executions", "vertices",
              "D", "ingest", "collect", "reduce");
  for (size_t row = 0; row < execution_axis.size(); ++row) {
    for (size_t col = 0; col < vertex_axis.size(); ++col) {
      const CellPhases& p = cell_phases[row][col];
      std::printf("%-12zu %8d %8zu %10.3f %10.3f %10.3f\n",
                  execution_axis[row], vertex_axis[col], p.distinct_sets,
                  p.ingest_ms, p.collect_ms, p.reduce_ms);
    }
  }

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
