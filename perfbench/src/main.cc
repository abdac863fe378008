// perfbench: the end-to-end benchmark of procmine.
//
//   perfbench --workload mine_text|mine_store|serve_mixed --seed N
//             --seconds S --trace 0|1
//
// Prints human-readable notes, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Scratch files live under .bench_work/ in the working directory and are
// removed before exit.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload mine_text|mine_store|serve_mixed "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

/// Marks the outcome incorrect when a metric the mode promises is missing,
/// or an end-to-end metric is not a positive finite number.
void CheckMetrics(bool trace, perfbench::Outcome* outcome) {
  std::set<std::string> present;
  for (const perfbench::Metric& m : outcome->metrics) {
    present.insert(m.name);
    if (!trace && !(std::isfinite(m.value) && m.value > 0)) {
      outcome->Fail("metric " + m.name + " is not a positive number", 0);
    }
  }
  std::vector<std::string> expected = perfbench::EndToEndMetricNames();
  if (trace) {
    expected.clear();
    for (const auto& [name, unit] : perfbench::PerLayerMetrics()) {
      expected.push_back(name);
    }
  }
  for (const std::string& name : expected) {
    if (present.count(name) == 0) outcome->Fail("metric " + name + " missing", 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 != 1) return Usage("flags take one value each");
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     config.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    return Usage("--workload, --seed and --seconds are required");
  }

  perfbench::Outcome (*run)(const perfbench::RunConfig&) = nullptr;
  if (config.workload == "mine_text") run = perfbench::RunMineText;
  if (config.workload == "mine_store") run = perfbench::RunMineStore;
  if (config.workload == "serve_mixed") run = perfbench::RunServeMixed;
  if (run == nullptr) return Usage("unknown workload");

  config.work_dir = ".bench_work/" + config.workload + "-" +
                    std::to_string(::getpid());
  if (!perfbench::ResetDir(config.work_dir)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 config.work_dir.c_str());
    return 1;
  }
  perfbench::Outcome outcome = run(config);
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::remove(".bench_work", ec);  // only if now empty

  CheckMetrics(config.trace, &outcome);
  for (const std::string& line : outcome.notes) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(outcome).c_str());
  return 0;
}
