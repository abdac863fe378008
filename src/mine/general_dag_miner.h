// Algorithm 2 (General DAG), Section 4 of the paper: the step-level code.
//
// Setting: the process graph is acyclic but executions need not contain all
// activities. The steps:
//   1-2. collect precedence edges,
//   3.   drop 2-cycles,
//   4.   drop all edges inside strongly connected components (paths of
//        followings both ways => independent),
//   5.   for each distinct execution activity set, transitively reduce the
//        induced subgraph and mark the surviving edges,
//   6.   drop unmarked edges.
// The result is a conformal graph (Theorem 5); minimality is heuristic.
// Steps 1-4 and the pipeline that sequences them live in mine/pipeline.h;
// this file holds the per-execution check and steps 5-6.

#ifndef PROCMINE_MINE_GENERAL_DAG_MINER_H_
#define PROCMINE_MINE_GENERAL_DAG_MINER_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "util/budget.h"
#include "util/id_set_table.h"
#include "util/result.h"

namespace procmine {

class ThreadPool;

namespace mine_internal {

/// Degradation text of the "general_dag.reduce" cut.
extern const char* const kReduceDropped;

/// The first activity `exec` repeats, or -1. `seen` holds one flag per
/// activity id; it must be all clear on entry and is all clear on return,
/// so one buffer serves a whole walk.
ActivityId FirstRepeat(const Execution& exec, std::vector<uint8_t>* seen);

/// Algorithm 2's per-execution validation: InvalidArgument when `exec`
/// repeats an activity. `seen` is FirstRepeat's scratch.
Status ValidateNoRepeats(const Execution& exec,
                         const ActivityDictionary& dict,
                         std::vector<uint8_t>* seen);

/// Steps 5-6 over the distinct activity sets `sets`: reduce the subgraph of
/// the post-SCC DAG `dag` induced by each set once, and keep the union of
/// the surviving edges. `dag` is ranked topologically once and its
/// adjacency kept as bit rows in rank space; each set then runs Algorithm 4
/// over its members' sorted ranks in ceil(p/64)-word rows, in O(p^2) bit
/// tests plus one row OR per kept edge, whatever the DAG's size. The sets
/// are reduced in chunks that OR their kept edges into one shared bit
/// matrix; the union is order-independent, so any partition gives the same
/// graph, with edges added in ascending (from, to) order. A set's ids may
/// come in any order. FailedPrecondition when `dag` has a cycle. The budget
/// is probed every 1024 sets; a cut records the "general_dag.reduce"
/// degradation and returns `dag`.
Result<DirectedGraph> ReduceActivitySets(const DirectedGraph& dag,
                                         const IdSetTable& sets,
                                         ThreadPool* pool, size_t chunk_size,
                                         RunBudget* budget,
                                         DegradationInfo* degradation);

}  // namespace mine_internal
}  // namespace procmine

#endif  // PROCMINE_MINE_GENERAL_DAG_MINER_H_
