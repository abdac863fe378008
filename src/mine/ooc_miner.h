// Out-of-core mining: the three paper algorithms over a SegmentStore,
// one bounded window at a time.
//
// The in-memory miners already shard every per-execution pass and merge
// with order-independent operations (edge-counter sums, marked-set unions,
// first-encounter label interning in log order). This driver exploits
// exactly that: it walks the store's segments in order, runs each phase's
// per-execution work on one decoded window at a time, and folds the
// results into the same global accumulators — so the model that comes out
// is byte-identical to ProcessMiner::Mine on the materialized log, at any
// threads x chunk-size x segment-size, while resident memory stays bounded
// by the store's LRU cache plus one window's accumulators.
//
// Per-walk shape (S = non-empty windows in one walk): one walk. Per window
// it runs the checks the algorithm needs (kAuto: SelectAlgorithm's, which
// imply both validations; general: no repeats; special: exactly once),
// occurrence labeling and an on-the-fly relabel on the cyclic path, then
// CollectPrecedenceEdges with counters summed, and for Algorithms 2 and 3
// adds each execution's sorted activity set to one table of distinct sets.
// Steps 3-6 then run on those sufficient statistics alone:
// ReduceActivitySets reduces each distinct set once against the global
// post-SCC DAG, exactly as GeneralDagMiner does in memory, so no window is
// decoded twice.
// Window visits per mine: S for every algorithm. kAuto on a cyclic log adds
// the k windows scanned up to the first repeated activity, whose counts are
// discarded: k + S.
//
// Budget semantics match the in-memory path: the same BudgetCut phases fire
// in the same order (the collect cut is probed once the scan is done, and
// discards its counts), so a budget-degraded out-of-core run returns the same
// partial model and DegradationInfo as the in-memory run would.
//
// Unsupported: provenance recording (run reports index executions globally
// and want the whole log resident — use the in-memory path for those).

#ifndef PROCMINE_MINE_OOC_MINER_H_
#define PROCMINE_MINE_OOC_MINER_H_

#include <cstdint>

#include "log/segment_store.h"
#include "mine/miner.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// What one out-of-core run touched. Every window visit counts: a run over S
/// non-empty segments reports S windows, and a kAuto cyclic run k + S, the
/// k windows of its cyclic-detection prefix included (see above).
struct OocMineStats {
  int64_t windows = 0;     ///< window visits across all walks
  int64_t executions = 0;  ///< executions mined (after any --max-executions cap)
  int64_t events = 0;      ///< raw events mined (2 x instances)
};

/// Windowed miner over a segment store.
class OutOfCoreMiner {
 public:
  explicit OutOfCoreMiner(MinerOptions options = MinerOptions())
      : options_(options) {}

  /// Mines `store`'s executions. The store is mutated only through its
  /// resident cache. Returns the same model (and the same errors, and the
  /// same budget degradations) as ProcessMiner::Mine(store->Materialize()).
  Result<ProcessGraph> Mine(SegmentStore* store,
                            OocMineStats* stats = nullptr) const;

 private:
  MinerOptions options_;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_OOC_MINER_H_
