// Algorithm 1 (Special DAG), Section 3 of the paper: the step-level code.
//
// Setting: the process graph is acyclic and EVERY execution contains every
// activity exactly once. Under those assumptions the minimal conformal graph
// is unique, and O(n^2 m) time finds it:
//   1-2. collect precedence edges over one log pass,
//   3.   drop edges appearing in both directions (such pairs are
//        independent),
//   4.   transitive reduction.
// The pipeline that sequences the steps lives in mine/pipeline.h; this file
// holds the per-execution check that guards the setting.

#ifndef PROCMINE_MINE_SPECIAL_DAG_MINER_H_
#define PROCMINE_MINE_SPECIAL_DAG_MINER_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "util/status.h"

namespace procmine {
namespace mine_internal {

/// Algorithm 1's per-execution validation: InvalidArgument unless `exec`
/// contains every one of the `n` activities exactly once. `seen` is
/// FirstRepeat's scratch (see mine/general_dag_miner.h).
Status ValidateExactlyOnce(const Execution& exec,
                           const ActivityDictionary& dict, NodeId n,
                           std::vector<uint8_t>* seen);

}  // namespace mine_internal
}  // namespace procmine

#endif  // PROCMINE_MINE_SPECIAL_DAG_MINER_H_
