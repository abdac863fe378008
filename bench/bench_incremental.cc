// Ablation: incremental mining vs. repeated batch re-mining.
//
// Scenario from Section 1's evolution use case: executions arrive in
// batches and the model must stay current. Compares total work of
// (a) re-running Algorithm 2 over the full log after every batch, vs.
// (b) the IncrementalMiner absorbing the batch and re-deriving the model
//     from its sufficient statistics.
// Also verifies both paths produce identical models at every step.

#include <cstdio>

#include "bench_common.h"
#include "mine/miner.h"
#include "mine/incremental.h"
#include "mine/metrics.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

int main() {
  const int32_t vertices = 25;
  const size_t total = QuickMode() ? 1000 : 5000;
  const size_t batch = 100;
  SyntheticWorkload w = MakeSyntheticWorkload(vertices, total, /*seed=*/99);

  std::printf(
      "Incremental vs batch re-mining: %d-vertex process, %zu executions "
      "arriving in batches of %zu\n",
      vertices, total, batch);
  std::printf(
      "%10s | %12s | %12s | %10s | %8s\n", "absorbed", "batch re-mine s",
      "incremental s", "distinct", "agree");

  IncrementalMiner incremental;
  double batch_total = 0, incremental_total = 0;
  EventLog prefix;
  for (const std::string& name : w.log.dictionary().names()) {
    prefix.dictionary().Intern(name);
  }

  for (size_t done = 0; done < total; done += batch) {
    for (size_t i = done; i < done + batch && i < total; ++i) {
      prefix.AddExecution(w.log.execution(i));
    }

    StopWatch batch_watch;
    auto batch_model =
        ProcessMiner({.algorithm = MinerAlgorithm::kGeneralDag}).Mine(prefix);
    double batch_seconds = batch_watch.ElapsedSeconds();
    batch_total += batch_seconds;
    PROCMINE_CHECK_OK(batch_model.status());

    StopWatch inc_watch;
    for (size_t i = done; i < done + batch && i < total; ++i) {
      PROCMINE_CHECK_OK(
          incremental.AddExecution(w.log.execution(i), w.log.dictionary()));
    }
    auto inc_model = incremental.CurrentGraph();
    double inc_seconds = inc_watch.ElapsedSeconds();
    incremental_total += inc_seconds;
    PROCMINE_CHECK_OK(inc_model.status());

    bool agree = CompareByName(*batch_model, *inc_model).ExactMatch();
    if ((done / batch) % 10 == 9 || done + batch >= total) {
      std::printf("%10zu | %12.4f | %12.4f | %10zu | %8s\n", done + batch,
                  batch_seconds, inc_seconds,
                  incremental.num_distinct_activity_sets(),
                  agree ? "yes" : "NO");
      std::fflush(stdout);
    }
    PROCMINE_CHECK(agree);
  }
  std::printf(
      "\ntotals: batch re-mining %.3fs, incremental %.3fs (%.1fx)\n",
      batch_total, incremental_total, batch_total / incremental_total);
  return 0;
}
