// Edge collection — step 2 of Algorithms 1-3: "For each process execution in
// L, and for each pair of activities u, v such that u terminates before v
// starts, add the edge (u, v) to E."
//
// For the noise handling of Section 6, each edge carries a counter of how
// many *executions* exhibited it; edges below the threshold T are dropped
// before the structural steps run.
//
// Each shard of executions counts into one flat open-addressing pair table:
// a slot holds the packed edge, its count and its first and last witnessing
// execution. The last witness is also the once-per-execution stamp: a pair
// seen again within the same execution (repeated activities) finds
// last == e and is not counted again, so no per-execution dedup set and no
// per-pair allocation exist. The same slot carries the provenance evidence.

#ifndef PROCMINE_MINE_EDGE_COLLECTOR_H_
#define PROCMINE_MINE_EDGE_COLLECTOR_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "mine/provenance.h"
#include "util/id_set_table.h"

namespace procmine {

class ThreadPool;

/// Precedence-edge counters: counts[PackEdge(u,v)] = number of executions in
/// which some instance of u terminates before some instance of v starts.
using EdgeCounts = std::unordered_map<uint64_t, int64_t>;

/// Calls `fn(PackEdge(u, v))` for every instance pair of `exec` in which u
/// terminates before v starts. Instances are ordered by start time, so the
/// partners of instance i form a suffix of the list and one binary search
/// finds it (j <= i never qualifies: start(j) <= start(i) <= end(i)):
/// O(k log k + qualifying pairs). A repeated activity yields its pairs once
/// per instance pair; counting once per execution is the caller's part.
template <typename Fn>
inline void ForEachPrecedencePair(const Execution& exec, Fn&& fn) {
  const auto& instances = exec.instances();
  for (auto i = instances.begin(); i != instances.end(); ++i) {
    const int64_t end_i = i->end;
    auto first = std::partition_point(
        i + 1, instances.end(),
        [end_i](const ActivityInstance& x) { return x.start <= end_i; });
    for (auto j = first; j != instances.end(); ++j) {
      fn(PackEdge(i->activity, j->activity));
    }
  }
}

/// Scans the log once and counts precedence edges, once per execution.
EdgeCounts CollectPrecedenceEdges(const EventLog& log);

/// Parallel variant: executions are split into work-stealing chunks counted
/// independently (idle workers claim the next chunk), then the chunk tables
/// are merged in chunk order by sum/min/max. Executions are disjoint across
/// chunks, so the totals (and the once-per-execution semantics) are
/// identical to the sequential path for any thread count. `pool` may be
/// null (sequential, one chunk); `chunk_size` is the per-chunk execution
/// count (0 = default, see PlanChunks).
///
/// When `provenance` is non-null the recorder receives each edge's support
/// and first/last witnessing execution index, read from the same tables.
/// When `sets` is non-null the same per-execution pass adds each
/// execution's sorted activity set to it (steps 5-6 read only those sets),
/// in log order of first occurrence whatever the partition.
EdgeCounts CollectPrecedenceEdges(const EventLog& log, ThreadPool* pool,
                                  ProvenanceRecorder* provenance = nullptr,
                                  size_t chunk_size = 0,
                                  IdSetTable* sets = nullptr);

/// Materializes the step-2 graph over `num_nodes` vertices, keeping edges
/// with count >= threshold (threshold 1 = no noise filtering). Pruned edges
/// are reported to `provenance` as kBelowThreshold when it is non-null.
DirectedGraph BuildPrecedenceGraph(const EdgeCounts& counts, NodeId num_nodes,
                                   int64_t threshold,
                                   ProvenanceRecorder* provenance = nullptr);

/// Step 3 of Algorithms 1-3: "Remove from E the edges that appear in both
/// directions." Removes both orientations of every 2-cycle, in place.
/// Removed edges are reported to `provenance` as kTwoCycle.
void RemoveTwoCycles(DirectedGraph* g,
                     ProvenanceRecorder* provenance = nullptr);

/// Step 4 of Algorithms 2-3: removes every edge between two vertices of the
/// same strongly connected component, in place. Vertices in one SCC follow
/// each other both ways and are therefore independent (Definition 4).
/// Removed edges are reported to `provenance` as kIntraScc.
void RemoveIntraSccEdges(DirectedGraph* g,
                         ProvenanceRecorder* provenance = nullptr);

}  // namespace procmine

#endif  // PROCMINE_MINE_EDGE_COLLECTOR_H_
