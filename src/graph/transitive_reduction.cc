#include "graph/transitive_reduction.h"

#include <vector>

#include "graph/algorithms.h"
#include "util/bit_matrix.h"

namespace procmine {

Result<DirectedGraph> TransitiveReduction(const DirectedGraph& g) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(g));
  const size_t n = static_cast<size_t>(g.num_nodes());
  // descendants[v]: all u such that v ->+ u, filled in reverse topological
  // order so successors are always complete before their predecessors.
  BitMatrix descendants(n, n);
  DirectedGraph reduced(g.num_nodes());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    BitRow desc = descendants[static_cast<size_t>(v)];
    // Step (a): union all successors' descendant sets.
    for (NodeId u : g.OutNeighbors(v)) {
      desc.OrWith(descendants[static_cast<size_t>(u)]);
    }
    // Step (b): a successor already reachable through another successor is
    // a redundant edge; keep only the others.
    for (NodeId u : g.OutNeighbors(v)) {
      if (!desc.Test(static_cast<size_t>(u))) reduced.AddEdge(v, u);
    }
    // Step (c): every successor (kept or dropped) is a descendant.
    for (NodeId u : g.OutNeighbors(v)) desc.Set(static_cast<size_t>(u));
  }
  return reduced;
}

Result<DirectedGraph> TransitiveReductionNaive(const DirectedGraph& g) {
  if (HasCycle(g)) {
    return Status::FailedPrecondition("graph has a cycle");
  }
  const NodeId n = g.num_nodes();
  DirectedGraph reduced(n);
  for (const Edge& e : g.Edges()) {
    // Keep (u,v) iff no path u ->+ v exists that avoids the direct edge,
    // i.e. no successor w != v of u reaches v.
    bool redundant = false;
    for (NodeId w : g.OutNeighbors(e.from)) {
      if (w == e.to) continue;
      if (HasPath(g, w, e.to)) {
        redundant = true;
        break;
      }
    }
    if (!redundant) reduced.AddEdge(e.from, e.to);
  }
  return reduced;
}

}  // namespace procmine
