// Micro benchmarks for the closure/reduction algorithms built on the
// BitMatrix rows, written to BENCH_kernels.json.
//
// Wall time of ReachabilityMatrix and TransitiveReduction (packed BitMatrix
// rows) against local copies of the seed implementations
// (std::vector<DynamicBitset> rows, per-element loops) on the same random
// DAGs, plus the general-DAG miner's rank-space steps 5-6
// (ReduceActivitySets) against InducedSubgraph + TransitiveReduction per
// set.
//
// As a ctest gate (PROCMINE_BENCH_QUICK=1) it shrinks the reps and FAILS if
// the closure/reduce rewrites come out slower than the seed (with a 0.8
// noise margin).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/dynamic_bitset.h"
#include "../tests/reduce_every_execution.h"
#include "bench_common.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "graph/transitive_reduction.h"
#include "mine/general_dag_miner.h"
#include "util/bit_matrix.h"
#include "util/id_set_table.h"
#include "util/random.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

namespace {

// ---------------------------------------------------------------------------
// Seed baselines: the implementations the BitMatrix versions replaced.

// The seed's ReachabilityMatrix: one DynamicBitset per row, element loops.
std::vector<DynamicBitset> SeedReachability(const DirectedGraph& g) {
  const size_t n = static_cast<size_t>(g.num_nodes());
  SccResult scc = StronglyConnectedComponents(g);
  const size_t nc = static_cast<size_t>(scc.num_components);
  std::vector<DynamicBitset> comp_reach(nc, DynamicBitset(n));
  // Tarjan numbers components in reverse topological order, so a forward
  // walk sees every successor component before its predecessors.
  for (size_t c = 0; c < nc; ++c) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (static_cast<size_t>(scc.component[v]) != c) continue;
      for (NodeId u : g.OutNeighbors(v)) {
        comp_reach[c].Set(static_cast<size_t>(u));
        size_t cu = static_cast<size_t>(scc.component[u]);
        if (cu != c) comp_reach[c].OrWith(comp_reach[cu]);
      }
    }
  }
  // Components with an internal edge reach themselves.
  for (size_t c = 0; c < nc; ++c) {
    bool cyclic = false;
    for (NodeId v = 0; v < g.num_nodes() && !cyclic; ++v) {
      if (static_cast<size_t>(scc.component[v]) != c) continue;
      for (NodeId u : g.OutNeighbors(v)) {
        if (static_cast<size_t>(scc.component[u]) == c) {
          cyclic = true;
          break;
        }
      }
    }
    if (cyclic) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (static_cast<size_t>(scc.component[v]) == c) {
          comp_reach[c].Set(static_cast<size_t>(v));
        }
      }
    }
  }
  std::vector<DynamicBitset> reach(n, DynamicBitset(n));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    reach[static_cast<size_t>(v)] =
        comp_reach[static_cast<size_t>(scc.component[v])];
  }
  return reach;
}

// The seed's Algorithm 4: reverse-topological descendant unions over
// std::vector<DynamicBitset>, unblocked.
DirectedGraph SeedTransitiveReduction(const DirectedGraph& g) {
  auto order = TopologicalSort(g);
  PROCMINE_CHECK_OK(order.status());
  const size_t n = static_cast<size_t>(g.num_nodes());
  std::vector<DynamicBitset> descendants(n, DynamicBitset(n));
  DirectedGraph reduced(g.num_nodes());
  for (size_t idx = order->size(); idx-- > 0;) {
    NodeId v = (*order)[idx];
    DynamicBitset& desc = descendants[static_cast<size_t>(v)];
    std::vector<NodeId> successors = g.OutNeighbors(v);
    std::sort(successors.begin(), successors.end());
    for (NodeId u : successors) {
      if (desc.Test(static_cast<size_t>(u))) continue;  // shortcut edge
      reduced.AddEdge(v, u);
      desc.Set(static_cast<size_t>(u));
      desc.OrWith(descendants[static_cast<size_t>(u)]);
    }
  }
  return reduced;
}

DirectedGraph BenchRandomDag(NodeId n, double density, uint64_t seed) {
  Rng rng(seed);
  DirectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.NextDouble() < density) g.AddEdge(u, v);
    }
  }
  return g;
}

// ---------------------------------------------------------------------------
// Measurement scaffolding.

struct MacroResult {
  std::string name;
  double seed_seconds = 0.0;
  double new_seconds = 0.0;
  double speedup = 0.0;
};

// Best-of-reps wall time for one closure over the working set. Best (not
// mean) is the right statistic on a shared box: noise only ever adds time.
template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    StopWatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

volatile uint64_t g_sink;  // defeats dead-code elimination

}  // namespace

int main() {
  const bool quick = QuickMode();
  // Closure / reduce macro benchmarks on a Table 1-shaped DAG, scaled up so
  // each bitset row spans several words.
  const NodeId kN = quick ? 192 : 512;
  const int kMacroReps = quick ? 3 : 10;
  DirectedGraph dag = BenchRandomDag(kN, 0.08, /*seed=*/77);

  std::vector<MacroResult> macros;
  {
    MacroResult r{"closure", 0, 0, 0};
    r.seed_seconds = BestSeconds(kMacroReps, [&] {
      auto reach = SeedReachability(dag);
      g_sink = reach.back().Count();
    });
    r.new_seconds = BestSeconds(kMacroReps, [&] {
      BitMatrix reach = ReachabilityMatrix(dag);
      g_sink = reach.Count();
    });
    r.speedup = r.seed_seconds / r.new_seconds;
    macros.push_back(r);
  }
  {
    MacroResult r{"reduce", 0, 0, 0};
    r.seed_seconds = BestSeconds(kMacroReps, [&] {
      DirectedGraph reduced = SeedTransitiveReduction(dag);
      g_sink = static_cast<uint64_t>(reduced.num_edges());
    });
    r.new_seconds = BestSeconds(kMacroReps, [&] {
      auto reduced = TransitiveReduction(dag);
      PROCMINE_CHECK_OK(reduced.status());
      g_sink = static_cast<uint64_t>(reduced->num_edges());
    });
    r.speedup = r.seed_seconds / r.new_seconds;
    // Same answer, or the comparison is meaningless.
    PROCMINE_CHECK(SeedTransitiveReduction(dag) ==
                   *TransitiveReduction(dag));
    macros.push_back(r);
  }
  {
    // Induced reduction, the general-DAG miner's steps 5-6: random
    // 40%-subsets reduced against the host DAG. The seed reduces each
    // subset's InducedSubgraph; the kernel is ReduceActivitySets, which
    // also unions the kept edges.
    MacroResult r{"induced_reduce", 0, 0, 0};
    const int kSubsets = 64;
    Rng subset_rng(9);
    std::vector<std::vector<NodeId>> subsets(kSubsets);
    for (auto& subset : subsets) {
      for (NodeId v = 0; v < kN; ++v) {
        if (subset_rng.NextDouble() < 0.4) subset.push_back(v);
      }
    }
    r.seed_seconds = BestSeconds(kMacroReps, [&] {
      uint64_t total = 0;
      for (const auto& subset : subsets) {
        DirectedGraph sub = InducedSubgraph(dag, subset);
        auto reduced = TransitiveReduction(sub);
        PROCMINE_CHECK_OK(reduced.status());
        total += static_cast<uint64_t>(reduced->num_edges());
      }
      g_sink = total;
    });
    IdSetTable table;
    for (const auto& subset : subsets) table.Insert(subset);
    r.new_seconds = BestSeconds(kMacroReps, [&] {
      auto kept = mine_internal::ReduceActivitySets(dag, table, nullptr, 0,
                                                    nullptr, nullptr);
      PROCMINE_CHECK_OK(kept.status());
      g_sink = static_cast<uint64_t>(kept->num_edges());
    });
    r.speedup = r.seed_seconds / r.new_seconds;
    // Same answer, or the comparison is meaningless.
    PROCMINE_CHECK(ReduceEverySet(dag, subsets) ==
                   *mine_internal::ReduceActivitySets(dag, table, nullptr, 0,
                                                      nullptr, nullptr));
    macros.push_back(r);
  }

  std::printf("closure/reduce (n=%d, density=0.08)\n", kN);
  std::printf("%-16s %12s %12s %9s\n", "benchmark", "seed s", "kernel s",
              "speedup");
  for (const MacroResult& r : macros) {
    std::printf("%-16s %12.4f %12.4f %8.2fx\n", r.name.c_str(),
                r.seed_seconds, r.new_seconds, r.speedup);
  }

  const char* out_path = "BENCH_kernels.json";
  std::ofstream out(out_path);
  out << "{\n"
      << "  \"bench\": \"kernels\",\n"
      << "  \"quick_mode\": " << (quick ? "true" : "false") << ",\n"
      << "  \"closure_reduce\": {\"vertices\": " << kN << ", \"results\": [\n";
  for (size_t i = 0; i < macros.size(); ++i) {
    const MacroResult& r = macros[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"seed_seconds\": %.6f, "
                  "\"kernel_seconds\": %.6f, \"speedup\": %.3f}",
                  r.name.c_str(), r.seed_seconds, r.new_seconds, r.speedup);
    out << line << (i + 1 == macros.size() ? "" : ",") << "\n";
  }
  out << "  ]}\n}\n";
  std::printf("\nwrote %s\n", out_path);

  if (quick) {
    bool failed = false;
    for (const MacroResult& r : macros) {
      if (r.new_seconds > r.seed_seconds / 0.8) {
        std::fprintf(stderr,
                     "FAIL: '%s' slower than the seed implementation "
                     "(%.4fs vs %.4fs)\n",
                     r.name.c_str(), r.new_seconds, r.seed_seconds);
        failed = true;
      }
    }
    if (failed) return 1;
    std::printf("quick gate: all rows at or above the seed baseline\n");
  }
  return 0;
}
