#include "graph/transitive_reduction.h"

#include <algorithm>
#include <vector>

#include "graph/algorithms.h"
#include "util/bit_matrix.h"

namespace procmine {

namespace {

// One column panel of this many words (4 KiB) per blocked sweep: big enough
// that the kernel loops amortize the per-vertex adjacency walk, small enough
// that a panel's slice of the whole matrix stays cache-resident.
constexpr size_t kDefaultPanelWords = 512;

// Algorithm 4 over column panels. Each panel pass walks the vertices in
// reverse topological order and unions only the panel's slice of the
// successor rows; a successor's own bit lives in exactly one panel, so the
// keep/drop decision for edge (v,u) is made exactly once — in u's panel.
// With panel_words >= words_per_row this degenerates to the classic
// single-pass algorithm.
DirectedGraph ReduceWithOrder(const DirectedGraph& g,
                              const std::vector<NodeId>& order,
                              size_t panel_words) {
  const NodeId n = g.num_nodes();
  const size_t un = static_cast<size_t>(n);
  // descendants[v]: all u such that v ->+ u, filled in reverse topological
  // order so successors are always complete before their predecessors.
  BitMatrix descendants(un, un);
  DirectedGraph reduced(n);
  const size_t row_words = descendants.words_per_row();
  for (size_t w0 = 0; w0 < row_words; w0 += panel_words) {
    const size_t pw = std::min(panel_words, row_words - w0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      NodeId v = *it;
      uint64_t* dst = descendants.RowWords(static_cast<size_t>(v)) + w0;
      // Step (a): union the panel slice of all successors' descendant sets.
      for (NodeId u : g.OutNeighbors(v)) {
        bits::Or(dst, descendants.RowWords(static_cast<size_t>(u)) + w0, pw);
      }
      // Step (b): a successor already reachable through another successor is
      // a redundant edge; keep only the others. Only successors whose bit
      // falls inside this panel are decided here.
      for (NodeId u : g.OutNeighbors(v)) {
        const size_t uw = static_cast<size_t>(u) >> 6;
        if (uw < w0 || uw >= w0 + pw) continue;
        if (!((dst[uw - w0] >> (u & 63)) & 1)) reduced.AddEdge(v, u);
      }
      // Step (c): every successor (kept or dropped) is a descendant.
      for (NodeId u : g.OutNeighbors(v)) {
        const size_t uw = static_cast<size_t>(u) >> 6;
        if (uw < w0 || uw >= w0 + pw) continue;
        dst[uw - w0] |= uint64_t{1} << (u & 63);
      }
    }
  }
  return reduced;
}

}  // namespace

Result<DirectedGraph> TransitiveReduction(const DirectedGraph& g) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(g));
  const size_t row_words = (static_cast<size_t>(g.num_nodes()) + 63) / 64;
  // Single pass while a row fits comfortably; panel sweeps once the matrix
  // outgrows cache (the same graph either way).
  const size_t panel = row_words > kDefaultPanelWords
                           ? kDefaultPanelWords
                           : std::max<size_t>(1, row_words);
  return ReduceWithOrder(g, order, panel);
}

Result<DirectedGraph> TransitiveReductionBlocked(const DirectedGraph& g,
                                                 size_t panel_words) {
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(g));
  if (panel_words == 0) panel_words = kDefaultPanelWords;
  return ReduceWithOrder(g, order, panel_words);
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
