// Test oracle for Algorithm 2's steps 5-6: reduce every execution's
// activity set, duplicates included, with the plain InducedSubgraph +
// TransitiveReduction pair. The miners reduce each distinct set once in the
// DAG's rank space (mine_internal::ReduceActivitySets); both must keep the
// same edges.

#ifndef PROCMINE_TESTS_REDUCE_EVERY_EXECUTION_H_
#define PROCMINE_TESTS_REDUCE_EVERY_EXECUTION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "log/event_log.h"
#include "mine/edge_collector.h"
#include "util/logging.h"
#include "workflow/process_graph.h"

namespace procmine {

/// The union over `sets` of TransitiveReduction(InducedSubgraph(dag, set)).
inline DirectedGraph ReduceEverySet(
    const DirectedGraph& dag, const std::vector<std::vector<NodeId>>& sets) {
  DirectedGraph kept(dag.num_nodes());
  for (const std::vector<NodeId>& set : sets) {
    Result<DirectedGraph> reduced =
        TransitiveReduction(InducedSubgraph(dag, set));
    PROCMINE_CHECK(reduced.ok());
    for (const Edge& e : reduced->Edges()) kept.AddEdge(e.from, e.to);
  }
  return kept;
}

/// Algorithm 2 on `log` at noise threshold `threshold`: steps 1-4, then the
/// union over executions of TransitiveReduction(InducedSubgraph(post-SCC
/// DAG, the execution's activities)).
inline ProcessGraph MineReducingEveryExecution(const EventLog& log,
                                               int64_t threshold) {
  const NodeId n = log.num_activities();
  DirectedGraph dag =
      BuildPrecedenceGraph(CollectPrecedenceEdges(log), n, threshold);
  RemoveTwoCycles(&dag);
  RemoveIntraSccEdges(&dag);
  std::vector<std::vector<NodeId>> sets;
  for (const Execution& exec : log.executions()) {
    sets.push_back(exec.Sequence());
  }
  return ProcessGraph(ReduceEverySet(dag, sets), log.dictionary().names());
}

}  // namespace procmine

#endif  // PROCMINE_TESTS_REDUCE_EVERY_EXECUTION_H_
