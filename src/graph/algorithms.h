// Classical digraph algorithms used by the miners: topological sort, cycle
// detection, Tarjan strongly-connected components, reachability / transitive
// closure, induced subgraphs, and source/sink queries.

#ifndef PROCMINE_GRAPH_ALGORITHMS_H_
#define PROCMINE_GRAPH_ALGORITHMS_H_

#include <vector>

#include "graph/digraph.h"
#include "util/bit_matrix.h"
#include "util/result.h"

namespace procmine {

/// Topological order of a DAG (ties broken by smallest id first, so the
/// order is deterministic). Fails with FailedPrecondition if `g` has a cycle.
Result<std::vector<NodeId>> TopologicalSort(const DirectedGraph& g);

/// True iff `g` contains a directed cycle (self loops count).
bool HasCycle(const DirectedGraph& g);

/// Strongly connected components, Tarjan's algorithm (iterative).
/// component[v] is the component index of v; components are numbered in
/// reverse topological order of the condensation (a property of Tarjan's).
struct SccResult {
  std::vector<int32_t> component;  ///< size num_nodes
  int32_t num_components = 0;
};
SccResult StronglyConnectedComponents(const DirectedGraph& g);

/// reach[v].Test(u) == true iff there is a directed path v ->+ u of length
/// >= 1. (A vertex reaches itself only via a cycle.) O(V*E/64). Returned as
/// a BitMatrix of packed rows, one per vertex.
BitMatrix ReachabilityMatrix(const DirectedGraph& g);

/// The transitive closure as a graph: edge (u,v) iff a path u ->+ v exists.
DirectedGraph TransitiveClosure(const DirectedGraph& g);

/// True iff a path from `from` to `to` of length >= 1 exists. O(V+E).
bool HasPath(const DirectedGraph& g, NodeId from, NodeId to);

/// Subgraph induced by `nodes`: keeps the original vertex ids (vertices not
/// in `nodes` become isolated). `nodes` may be in any order; duplicates are
/// ignored.
DirectedGraph InducedSubgraph(const DirectedGraph& g,
                              const std::vector<NodeId>& nodes);

/// Vertices with in-degree 0 / out-degree 0, ascending.
std::vector<NodeId> Sources(const DirectedGraph& g);
std::vector<NodeId> Sinks(const DirectedGraph& g);

/// True iff the underlying undirected graph is connected, ignoring vertices
/// listed in `ignore_isolated` semantics: isolated vertices are NOT ignored.
bool IsWeaklyConnected(const DirectedGraph& g);

/// Vertices reachable from `start` following edges forward, including
/// `start` itself.
std::vector<NodeId> ReachableFrom(const DirectedGraph& g, NodeId start);

}  // namespace procmine

#endif  // PROCMINE_GRAPH_ALGORITHMS_H_
