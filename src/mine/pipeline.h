// The one mining pipeline behind ProcessMiner (an in-memory EventLog) and
// OutOfCoreMiner (a SegmentStore).
//
// Algorithms 1-3 (Sections 3-5) share steps 1-4: collect precedence counts,
// apply the Section 6 threshold, drop 2-cycles and, for Algorithms 2 and 3,
// drop intra-SCC edges. They differ only in the per-execution check and in
// the finish. This pipeline runs that arc once for every algorithm and both
// sources:
//
//   scan    one walk over the source's windows: the in-memory log is one
//           window, a store has one per non-empty segment. Per window it
//           checks every execution the way the algorithm needs (kAuto:
//           SelectAlgorithm's rule; Algorithm 1: ValidateExactlyOnce;
//           Algorithm 2: ValidateNoRepeats; Algorithm 3: occurrence
//           labeling, then RelabelLog), then makes one collect pass over
//           the window's executions: each execution's precedence pairs go
//           into the collector's stamped pair table and, for Algorithms 2
//           and 3, its sorted activity set into one table of distinct
//           sets. The window's counts are added to one sum.
//   finish  steps 2-4 on the summed counts, then transitive reduction
//           (Algorithm 1) or ReduceActivitySets (Algorithms 2 and 3), then
//           the step 8 merge (Algorithm 3).
//
// kAuto stops its walk at the first repeated activity, and a second walk
// labels occurrences: on a store whose first repeat sits in window k of S,
// that is k + S window visits; every other mine visits S.
//
// Windows partition the executions and every merge is order-independent,
// so a store mine returns byte for byte the model, error and
// DegradationInfo of an in-memory mine of the materialized log, at any
// threads x chunk size x segment size.
//
// Budget: the sticky budget is probed before each window is collected.
// Once it has run out, the remaining windows are still checked (a bad
// execution anywhere fails the mine before any cut is recorded) but no
// longer collected, and the collect cut is recorded after the walk.

#ifndef PROCMINE_MINE_PIPELINE_H_
#define PROCMINE_MINE_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "log/event_log.h"
#include "mine/miner.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

class SegmentStore;
struct OocMineStats;

namespace mine_internal {

/// The windows one mine reads. Exactly one of `log` and `store` is set.
struct MineSource {
  const EventLog* log = nullptr;
  SegmentStore* store = nullptr;
  OocMineStats* stats = nullptr;  ///< store only; may be null
};

/// SelectAlgorithm's rule for one execution: kCyclic when `exec` repeats an
/// activity, kSpecialDag when it holds all `n` activities, kGeneralDag
/// otherwise. `seen` is FirstRepeat's scratch (mine/general_dag_miner.h).
MinerAlgorithm ClassifyExecution(const Execution& exec, NodeId n,
                                 std::vector<uint8_t>* seen);

/// Mines `source` with `options`. Provenance recording needs the whole log
/// resident, so a store mine with a recorder attached is InvalidArgument.
Result<ProcessGraph> MineWindows(const MineSource& source,
                                 const MinerOptions& options);

}  // namespace mine_internal
}  // namespace procmine

#endif  // PROCMINE_MINE_PIPELINE_H_
