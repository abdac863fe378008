// ProcessMiner: the library facade. Picks the right algorithm for the log
// (Algorithm 1 for exactly-once logs, Algorithm 2 for general acyclic logs,
// Algorithm 3 for logs with repeated activities) or runs the one
// MinerOptions::algorithm names, and can chain condition learning. Every
// algorithm runs through the one pipeline in mine/pipeline.h, which also
// serves OutOfCoreMiner; the step-level code of each algorithm lives in
// mine/special_dag_miner.h, mine/general_dag_miner.h and
// mine/cyclic_miner.h.
//
// Quickstart:
//   auto log = LogReader::ReadFile("orders.log").ValueOrDie();
//   ProcessMiner miner;
//   ProcessGraph model = miner.Mine(log).ValueOrDie();
//   std::cout << model.ToDot();

#ifndef PROCMINE_MINE_MINER_H_
#define PROCMINE_MINE_MINER_H_

#include <string_view>

#include "log/event_log.h"
#include "mine/condition_miner.h"
#include "mine/conformance.h"
#include "util/budget.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

class ProvenanceRecorder;

enum class MinerAlgorithm : int8_t {
  kAuto,        ///< choose from the log's shape
  kSpecialDag,  ///< Algorithm 1
  kGeneralDag,  ///< Algorithm 2
  kCyclic,      ///< Algorithm 3
};

/// Stable lower-snake name: "auto", "special_dag", "general_dag", "cyclic".
std::string_view ToString(MinerAlgorithm algorithm);

struct MinerOptions {
  MinerAlgorithm algorithm = MinerAlgorithm::kAuto;
  /// Section 6 noise threshold T (minimum executions per edge); 1 keeps all.
  int64_t noise_threshold = 1;
  /// Worker threads for the chunked per-execution mining passes (edge
  /// collection, set gathering, relabeling and the step 5-6 reductions).
  /// 1 (the default) runs the sequential reference path; <= 0 selects
  /// hardware concurrency. Every thread count produces a byte-identical
  /// model: the chunk partition is a pure function of the log and these
  /// options, and the chunk merges (counter sum, set-table merge in shard
  /// order, marked-set union) are order-independent by construction. Logs
  /// below ThreadPool::kSmallInputInlineThreshold executions skip the pool.
  int num_threads = 1;
  /// Executions per work-stealing chunk (0 = default, 4 chunks per thread;
  /// see PlanChunks). Any value produces the same model — a tuning knob
  /// only: smaller chunks rebalance better against skewed executions,
  /// larger chunks amortize per-chunk accumulators.
  size_t chunk_size = 0;
  /// Optional edge-provenance sink (see mine/provenance.h; obs/report.h
  /// builds full run reports on top of it, and `procmine explain` renders
  /// it). The recorder learns the algorithm kAuto resolved to. Algorithm 3
  /// records in the occurrence-labeled id space and attaches the
  /// labeled-to-base mapping.
  /// Not owned; must outlive Mine(). Null (the default) disables recording.
  ProvenanceRecorder* provenance = nullptr;
  /// Optional run budget, checked at phase boundaries, before each window's
  /// collection, and every 1024 activity sets inside the step 5-6
  /// reduction. On exhaustion the miner returns the best model built so
  /// far instead of finishing — never an error — and records what was cut
  /// in `degradation`. max_executions is applied here: only the first N
  /// executions are mined. Both pointers are borrowed and may be null (no
  /// budgeting).
  RunBudget* budget = nullptr;
  DegradationInfo* degradation = nullptr;
};

/// High-level mining entry point.
class ProcessMiner {
 public:
  explicit ProcessMiner(MinerOptions options = {}) : options_(options) {}

  /// Mines a process model graph. Vertex ids equal the log's ActivityIds.
  Result<ProcessGraph> Mine(const EventLog& log) const;

  /// Mines the graph, then learns edge conditions from recorded outputs.
  Result<AnnotatedProcess> MineWithConditions(
      const EventLog& log, ConditionMinerOptions condition_options = {}) const;

  /// The algorithm kAuto would select for this log.
  static MinerAlgorithm SelectAlgorithm(const EventLog& log);

 private:
  MinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_MINER_H_
