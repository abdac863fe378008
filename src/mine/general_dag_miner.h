// Algorithm 2 (General DAG), Section 4 of the paper.
//
// Setting: the process graph is acyclic but executions need not contain all
// activities. Two passes over the log:
//   1-2. collect precedence edges,
//   3.   drop 2-cycles,
//   4.   drop all edges inside strongly connected components (paths of
//        followings both ways => independent),
//   5.   for each distinct execution activity set, transitively reduce the
//        induced subgraph and mark the surviving edges,
//   6.   drop unmarked edges.
// The result is a conformal graph (Theorem 5); minimality is heuristic.

#ifndef PROCMINE_MINE_GENERAL_DAG_MINER_H_
#define PROCMINE_MINE_GENERAL_DAG_MINER_H_

#include <cstdint>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "util/budget.h"
#include "util/id_set_table.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

class ProvenanceRecorder;
class ThreadPool;

namespace mine_internal {

/// Degradation text of the "general_dag.reduce" cut, shared with the
/// out-of-core driver so both report the same DegradationInfo.
extern const char* const kReduceDropped;

/// Algorithm 2's per-execution validation: InvalidArgument when `exec`
/// repeats an activity (same message the in-memory miner emits, so the
/// windowed path fails identically).
Status ValidateNoRepeats(const Execution& exec,
                         const ActivityDictionary& dict, NodeId n);

/// Adds each execution's sorted activity set to `sets`: one reused scratch
/// buffer and one table probe per execution. Under `pool` the executions
/// are gathered per shard and the shard tables merged in shard order.
void GatherActivitySets(const EventLog& log, ThreadPool* pool,
                        size_t chunk_size, IdSetTable* sets);

/// Steps 5-6 over the distinct activity sets `sets`: reduce the subgraph of
/// the post-SCC DAG `dag` induced by each set once, and keep the union of
/// the surviving edges. The sets are reduced in chunks (one reducer and
/// one marked set each), and the union is order-independent, so any
/// partition gives the same graph. The budget is probed every 1024 sets; a
/// cut records the "general_dag.reduce" degradation and returns `dag`.
Result<DirectedGraph> ReduceActivitySets(const DirectedGraph& dag,
                                         const IdSetTable& sets,
                                         ThreadPool* pool, size_t chunk_size,
                                         RunBudget* budget,
                                         DegradationInfo* degradation);

}  // namespace mine_internal

struct GeneralDagMinerOptions {
  /// Minimum executions an edge must appear in to survive (Section 6
  /// noise threshold T). 1 = keep everything.
  int64_t noise_threshold = 1;
  /// Reduce each distinct activity set once (steps 5-6 depend only on the
  /// set, not the order, and executions repeat heavily in real logs).
  /// false reduces every execution's set, duplicates included: the oracle
  /// for tests and the ablation in bench_micro.
  bool memoize_reductions = true;
  /// Worker threads for the chunked per-execution passes (edge collection
  /// and the step 5-6 transitive reductions). 1 = sequential reference
  /// path; <= 0 = hardware concurrency. The mined graph is byte-identical
  /// for every thread count; logs below
  /// ThreadPool::kSmallInputInlineThreshold executions skip the pool
  /// entirely.
  int num_threads = 1;
  /// Executions per work-stealing chunk; 0 (the default) selects 4 chunks
  /// per thread (see PlanChunks). Any value produces the same model —
  /// exposed for tuning and for the determinism tests' chunk-size axis.
  size_t chunk_size = 0;
  /// Optional edge-provenance sink (see mine/provenance.h). Not owned; must
  /// outlive Mine(). Null (the default) disables recording at the cost of
  /// one branch per instrumented site.
  ProvenanceRecorder* provenance = nullptr;
  /// Optional run budget + degradation sink (see util/budget.h): checked at
  /// phase boundaries and every 1024 activity sets inside the step 5-6
  /// reduction pass. On exhaustion the miner returns the conformal (but
  /// unminimized) post-SCC DAG and records the cut. Borrowed; may be null.
  RunBudget* budget = nullptr;
  DegradationInfo* degradation = nullptr;
};

/// Mines a conformal DAG from a general acyclic log.
class GeneralDagMiner {
 public:
  explicit GeneralDagMiner(GeneralDagMinerOptions options = {})
      : options_(options) {}

  /// Returns a ProcessGraph whose vertex ids are the log's ActivityIds.
  /// Executions with repeated activities are rejected (use CyclicMiner).
  Result<ProcessGraph> Mine(const EventLog& log) const;

 private:
  GeneralDagMinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_GENERAL_DAG_MINER_H_
