// The original edge collector, kept outside the library as a reference.
//
// It counts step 2's precedence pairs the straightforward way: per
// execution, a binary search for each instance's partners, a
// std::unordered_set of the pairs already seen in this execution, and a
// std::unordered_map increment per new pair. The library's collector
// replaces both hash containers with one stamped pair table per shard. It
// serves two purposes:
//
//  * the oracle of edge_collector_test's property test: counts and evidence
//    (support, first and last witness) must match at any thread count and
//    chunk size;
//  * the reference row of bench_micro's BM_EdgeCollection.

#ifndef PROCMINE_TESTS_REFERENCE_EDGE_COLLECTOR_H_
#define PROCMINE_TESTS_REFERENCE_EDGE_COLLECTOR_H_

#include <algorithm>
#include <cstdint>
#include <unordered_set>

#include "log/event_log.h"
#include "mine/edge_collector.h"
#include "mine/provenance.h"

namespace procmine {
namespace reference {

/// Calls fn(e, key) once per execution e for every distinct pair key of
/// e in which some instance ends before another starts.
template <typename Fn>
inline void ForEachExecutionPair(const EventLog& log, Fn&& fn) {
  std::unordered_set<uint64_t> seen_this_exec;
  for (size_t e = 0; e < log.num_executions(); ++e) {
    const auto& instances = log.execution(e).instances();
    const size_t k = instances.size();
    seen_this_exec.clear();
    for (size_t i = 0; i < k; ++i) {
      const int64_t end_i = instances[i].end;
      auto first = std::partition_point(
          instances.begin() + static_cast<ptrdiff_t>(i) + 1, instances.end(),
          [end_i](const ActivityInstance& x) { return x.start <= end_i; });
      for (auto it = first; it != instances.end(); ++it) {
        uint64_t key = PackEdge(instances[i].activity, it->activity);
        if (seen_this_exec.insert(key).second) fn(e, key);
      }
    }
  }
}

/// counts[PackEdge(u, v)] = executions in which u ends before v starts.
inline EdgeCounts CollectPrecedenceEdges(const EventLog& log) {
  EdgeCounts counts;
  ForEachExecutionPair(log, [&](size_t, uint64_t key) { ++counts[key]; });
  return counts;
}

/// Per-edge support and first/last witnessing execution index.
inline EdgeEvidenceMap CollectEvidence(const EventLog& log) {
  EdgeEvidenceMap evidence;
  ForEachExecutionPair(log, [&](size_t e, uint64_t key) {
    EdgeEvidence& cell = evidence[key];
    ++cell.support;
    const int64_t index = static_cast<int64_t>(e);
    if (cell.first_witness < 0) cell.first_witness = index;
    cell.last_witness = index;  // e is increasing
  });
  return evidence;
}

}  // namespace reference
}  // namespace procmine

#endif  // PROCMINE_TESTS_REFERENCE_EDGE_COLLECTOR_H_
