// Out-of-core mining: the three paper algorithms over a SegmentStore,
// one bounded window at a time.
//
// OutOfCoreMiner feeds the store's segments, in order, to the same mining
// pipeline ProcessMiner runs on an in-memory log (mine/pipeline.h), so the
// model that comes out is byte-identical to ProcessMiner::Mine on the
// materialized log, at any threads x chunk-size x segment-size, while
// resident memory stays bounded by the store's LRU cache plus one window
// and the pipeline's sufficient statistics (edge counts and distinct
// activity sets).
//
// Window visits per mine (S = non-empty segments holding the mined
// executions): S for every algorithm. kAuto on a cyclic log adds the k
// windows scanned up to the first repeated activity, whose counts are
// discarded: k + S. Errors, --max-executions truncation and budget cuts
// match the in-memory path, DegradationInfo included; once the budget has
// run out, the remaining windows are checked but not collected.
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
  int64_t executions = 0;  ///< executions collected (after a --max-executions cap)
  int64_t events = 0;      ///< raw events collected (2 x instances)
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
