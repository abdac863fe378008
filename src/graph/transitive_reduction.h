// Transitive reduction of a DAG.
//
// Implements Algorithm 4 from Appendix A of the paper: visit vertices in
// reverse topological order, maintain per-vertex descendant bitsets, and drop
// any successor that is already a descendant via another successor. A DAG has
// a unique transitive reduction [AGU72], which is what Algorithms 1-3 rely
// on. Runs in O(V*E/64) time and O(V^2/64) space.
//
// The descendant sets are the packed rows of one BitMatrix, and each
// per-vertex union is one plain word loop (util/bit_matrix.h). On the
// paper's 10-100-activity graphs a row is one or two words.
//
// The general-DAG miner's steps 5-6 reduce many induced subgraphs of one
// host DAG; they run the same Algorithm 4 in the host's rank space, without
// building a graph per subgraph (mine_internal::ReduceActivitySets).
//
// A naive O(E*(V+E)) reference implementation is provided for property tests
// and as the baseline in the micro benchmarks.

#ifndef PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_
#define PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_

#include <vector>

#include "graph/digraph.h"
#include "util/result.h"

namespace procmine {

/// Transitive reduction via Algorithm 4 (bitset descendant sets).
/// Fails with FailedPrecondition if `g` has a cycle.
Result<DirectedGraph> TransitiveReduction(const DirectedGraph& g);

/// Reference implementation: an edge (u,v) is kept iff there is no other
/// path from u to v (Lemma 7 / [AGU72]). Fails on cyclic input.
Result<DirectedGraph> TransitiveReductionNaive(const DirectedGraph& g);

}  // namespace procmine

#endif  // PROCMINE_GRAPH_TRANSITIVE_REDUCTION_H_
