// Convergence analysis: how many executions does recovery need?
//
// Quantifies Table 2's narrative — "When a graph has a large number of
// vertices, the log must correspondingly contain a large number of
// executions to capture the structure of the graph" — by measuring, per
// graph size, the execution count at which the mined model first matches
// the truth at the dependency (closure) level and at the exact edge level.

#include <cstdio>

#include "bench_common.h"
#include "mine/miner.h"
#include "mine/metrics.h"
#include "log/transform.h"

using namespace procmine;
using namespace procmine::bench;

namespace {

/// First prefix length in `schedule` at which `predicate` holds, or -1.
template <typename Predicate>
int64_t FirstConverged(const ProcessGraph& truth, const EventLog& full_log,
                       const std::vector<size_t>& schedule,
                       Predicate predicate) {
  for (size_t m : schedule) {
    if (m > full_log.num_executions()) break;
    EventLog prefix = TakeExecutions(full_log, m);
    auto mined =
        ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(prefix);
    if (!mined.ok()) continue;
    if (predicate(CompareClosuresByName(truth, *mined),
                  CompareByName(truth, *mined))) {
      return static_cast<int64_t>(m);
    }
  }
  return -1;
}

}  // namespace

int main() {
  std::vector<size_t> schedule = {10,  20,   40,   80,   160, 320,
                                  640, 1280, 2560, 5120, 10240};
  const size_t max_m = QuickMode() ? 1280 : 10240;
  while (schedule.back() > max_m) schedule.pop_back();

  std::printf(
      "Executions needed for recovery (same workloads as Tables 1-2)\n");
  std::printf(
      "vertices | m* dependency-recall=1 | m* closure exact | m* edges "
      "exact\n");
  for (int32_t vertices : {10, 15, 25, 50}) {
    SyntheticWorkload w = MakeSyntheticWorkload(vertices, max_m,
                                                /*seed=*/1000 + vertices);
    int64_t recall_m = FirstConverged(
        w.truth, w.log, schedule,
        [](const GraphComparison& closure, const GraphComparison&) {
          return closure.missing_edges == 0;
        });
    int64_t closure_m = FirstConverged(
        w.truth, w.log, schedule,
        [](const GraphComparison& closure, const GraphComparison&) {
          return closure.ExactMatch();
        });
    int64_t exact_m = FirstConverged(
        w.truth, w.log, schedule,
        [](const GraphComparison&, const GraphComparison& edges) {
          return edges.ExactMatch();
        });
    auto show = [](int64_t m) {
      return m < 0 ? std::string(">max") : std::to_string(m);
    };
    std::printf("%8d | %22s | %16s | %14s\n", vertices,
                show(recall_m).c_str(), show(closure_m).c_str(),
                show(exact_m).c_str());
    std::fflush(stdout);
  }
  std::printf(
      "\nReading: dependency recall saturates first (true dependencies are "
      "never\ncontradicted), the closure converges once enough parallel "
      "pairs were seen in\nboth orders, and exact edge sets may never "
      "converge under the Section 8.1\nwalker (supergraph shortcuts are "
      "conformal and persistent — the paper's open\nproblem).\n");
  return 0;
}
