// The original log-statistics passes, kept outside the library as a
// reference.
//
// Before Relations::Compute counted each activity pair once for both
// statistics, two functions walked the log the same way: the followings
// relation of Section 2 kept one co-occurrence and one violation bit per
// ordered pair, and the Section 6 noise estimate kept its own n x n table
// of "a wholly precedes b" counts. Both are reproduced here from their
// definitions, with a plain Warshall closure instead of the library's
// ReachabilityMatrix, as the oracle of relations_property_test.

#ifndef PROCMINE_TESTS_LEGACY_RELATIONS_H_
#define PROCMINE_TESTS_LEGACY_RELATIONS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"

namespace procmine {
namespace legacy {

/// Extent (first start, last end) of every activity present in `exec`;
/// `present[a]` says whether a occurs at all.
struct Extents {
  std::vector<bool> present;
  std::vector<int64_t> first_start;
  std::vector<int64_t> last_end;
};

inline Extents ExtentsOf(const Execution& exec, size_t n) {
  Extents x{std::vector<bool>(n, false), std::vector<int64_t>(n),
            std::vector<int64_t>(n)};
  for (const ActivityInstance& inst : exec.instances()) {
    const size_t a = static_cast<size_t>(inst.activity);
    if (!x.present[a]) {
      x.present[a] = true;
      x.first_start[a] = inst.start;
      x.last_end[a] = inst.end;
    } else {
      x.first_start[a] = std::min(x.first_start[a], inst.start);
      x.last_end[a] = std::max(x.last_end[a], inst.end);
    }
  }
  return x;
}

/// The primitive-followings graph: edge (a, b) iff a and b co-occur in
/// some execution, and in every execution holding both, b starts after a
/// terminates (extents).
inline DirectedGraph Followings(const EventLog& log) {
  const size_t n = static_cast<size_t>(log.num_activities());
  std::vector<bool> cooccur(n * n, false);
  std::vector<bool> violated(n * n, false);
  for (const Execution& exec : log.executions()) {
    const Extents x = ExtentsOf(exec, n);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (a == b || !x.present[a] || !x.present[b]) continue;
        cooccur[a * n + b] = true;
        if (!(x.first_start[b] > x.last_end[a])) violated[a * n + b] = true;
      }
    }
  }
  DirectedGraph g(static_cast<NodeId>(n));
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (cooccur[a * n + b] && !violated[a * n + b]) {
        g.AddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
      }
    }
  }
  return g;
}

/// closure[a][b] iff a path a ->+ b of length >= 1 exists (Warshall).
inline std::vector<std::vector<bool>> Closure(const DirectedGraph& g) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const Edge& e : g.Edges()) {
    reach[static_cast<size_t>(e.from)][static_cast<size_t>(e.to)] = true;
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!reach[i][k]) continue;
      for (size_t j = 0; j < n; ++j) {
        if (reach[k][j]) reach[i][j] = true;
      }
    }
  }
  return reach;
}

/// Definition 4 over a closure: (a, b) with b following a but a not
/// following b, sorted.
inline std::vector<Edge> Dependencies(
    const std::vector<std::vector<bool>>& closure) {
  std::vector<Edge> deps;
  const size_t n = closure.size();
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      if (a != b && closure[a][b] && !closure[b][a]) {
        deps.push_back(Edge{static_cast<NodeId>(a), static_cast<NodeId>(b)});
      }
    }
  }
  return deps;
}

/// The Section 6 estimate with its own log walk: for every pair observed in
/// both orders, the minority orientation's share of the executions ordering
/// the pair, attributed to noise when below `minority_cutoff`, weighted by
/// that execution count.
inline double EstimateNoiseRate(const EventLog& log,
                                double minority_cutoff = 0.2) {
  const size_t n = static_cast<size_t>(log.num_activities());
  if (n == 0 || log.num_executions() == 0) return 0.0;
  std::vector<int64_t> ordered(n * n, 0);
  for (const Execution& exec : log.executions()) {
    const Extents x = ExtentsOf(exec, n);
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = 0; b < n; ++b) {
        if (a != b && x.present[a] && x.present[b] &&
            x.last_end[a] < x.first_start[b]) {
          ++ordered[a * n + b];
        }
      }
    }
  }
  double weighted_minority = 0.0;
  double weight = 0.0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      const int64_t ab = ordered[a * n + b];
      const int64_t ba = ordered[b * n + a];
      const int64_t total = ab + ba;
      if (total == 0 || ab == 0 || ba == 0) continue;
      const double minority = static_cast<double>(std::min(ab, ba)) /
                              static_cast<double>(total);
      if (minority >= minority_cutoff) continue;
      weighted_minority += minority * static_cast<double>(total);
      weight += static_cast<double>(total);
    }
  }
  return weight == 0.0 ? 0.0 : weighted_minority / weight;
}

}  // namespace legacy
}  // namespace procmine

#endif  // PROCMINE_TESTS_LEGACY_RELATIONS_H_
