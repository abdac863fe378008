#include "mine/relations.h"

#include <algorithm>
#include <cstdint>

#include "graph/algorithms.h"
#include "mine/noise.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace procmine {

Relations Relations::Compute(const EventLog& log) {
  PROCMINE_SPAN("relations.compute");
  const NodeId n = log.num_activities();
  const size_t un = static_cast<size_t>(n);
  static obs::Counter* executions = obs::MetricsRegistry::Get().GetCounter(
      "relations.executions_scanned");
  executions->Add(static_cast<int64_t>(log.num_executions()));

  // Pair (a, b) sits at a * n + b.
  std::vector<int64_t> cooccur(un * un, 0);
  std::vector<int64_t> ordered(un * un, 0);
  // Per execution: extent (first start, last end) of each present activity.
  std::vector<int64_t> first_start(un);
  std::vector<int64_t> last_end(un);
  std::vector<bool> present(un, false);
  std::vector<size_t> touched;
  for (const Execution& exec : log.executions()) {
    touched.clear();
    for (const ActivityInstance& inst : exec.instances()) {
      size_t a = static_cast<size_t>(inst.activity);
      if (!present[a]) {
        present[a] = true;
        touched.push_back(a);
        first_start[a] = inst.start;
        last_end[a] = inst.end;
      } else {
        first_start[a] = std::min(first_start[a], inst.start);
        last_end[a] = std::max(last_end[a], inst.end);
      }
    }
    // Only pairs of activities present in this execution gain counts, so
    // the pair loop is O(p^2) in its activity count, not O(n^2).
    for (size_t a : touched) {
      for (size_t b : touched) {
        if (a == b) continue;
        ++cooccur[a * un + b];
        if (last_end[a] < first_start[b]) ++ordered[a * un + b];
      }
    }
    for (size_t a : touched) present[a] = false;
  }

  Relations rel;
  rel.followings_ = DirectedGraph(n);
  for (size_t a = 0; a < un; ++a) {
    for (size_t b = 0; b < un; ++b) {
      const size_t ab = a * un + b;
      // b follows a: "B starts after A terminates" in every co-occurrence.
      if (cooccur[ab] > 0 && ordered[ab] == cooccur[ab]) {
        rel.followings_.AddEdge(static_cast<NodeId>(a),
                                static_cast<NodeId>(b));
      }
    }
  }
  rel.follows_closure_ = ReachabilityMatrix(rel.followings_);
  rel.epsilon_ = EstimateNoiseRate(ordered, un);
  static obs::Counter* followings = obs::MetricsRegistry::Get().GetCounter(
      "relations.followings_edges");
  followings->Add(rel.followings_.num_edges());
  return rel;
}

std::vector<Edge> Relations::AllDependencies() const {
  std::vector<Edge> deps;
  const NodeId n = num_activities();
  for (ActivityId a = 0; a < n; ++a) {
    for (ActivityId b = 0; b < n; ++b) {
      if (a != b && DependsOn(b, a)) deps.push_back(Edge{a, b});
    }
  }
  std::sort(deps.begin(), deps.end());
  return deps;
}

}  // namespace procmine
