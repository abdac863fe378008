// Micro benchmarks for the bits:: word kernels and the closure/reduction
// algorithms they power, written to BENCH_kernels.json.
//
// Two layers:
//
//  * Word kernels (OR / AND-NOT / popcount / intersects): GB/s of the
//    compiled bits:: dispatch (8x unrolled scalar, or AVX2 when built with
//    -DPROCMINE_SIMD=ON — bits::KernelMode() names which one this binary
//    carries) against a deliberately seed-style baseline: the plain
//    one-word-at-a-time loop DynamicBitset used before the kernel layer.
//  * Closure / reduce: wall time of ReachabilityMatrix and
//    TransitiveReduction (flat BitMatrix + kernels + panel blocking) against
//    local copies of the seed implementations (std::vector<DynamicBitset>
//    rows, per-element loops) on the same random DAGs, plus the general-DAG
//    miner's rank-space steps 5-6 (ReduceActivitySets) against
//    InducedSubgraph + TransitiveReduction per set.
//
// As a ctest gate (PROCMINE_BENCH_QUICK=1) it shrinks the reps and FAILS if
// any unrolled kernel falls below its seed-style baseline (with a 0.8 noise
// margin — the gate catches "the unrolling got pessimized", not scheduler
// jitter), or if the closure/reduce rewrites come out slower than the seed.

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
// Seed-style baselines. These are intentionally the pre-kernel idiom: one
// word per iteration, no unrolling, no restrict. Marked noinline so the
// compiler cannot fuse them with the measurement loop.

__attribute__((noinline)) void SeedOr(uint64_t* dst, const uint64_t* src,
                                      size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

__attribute__((noinline)) void SeedAndNot(uint64_t* dst, const uint64_t* src,
                                          size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

__attribute__((noinline)) size_t SeedPopcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

__attribute__((noinline)) bool SeedIntersects(const uint64_t* a,
                                              const uint64_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

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

struct KernelResult {
  std::string kernel;
  double seed_gbps = 0.0;
  double unrolled_gbps = 0.0;
  double speedup = 0.0;
};

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
  // 32 KiB per operand: resident in L1/L2 so the kernels, not DRAM, are
  // what's measured. The word count is NOT a multiple of 8, so the unrolled
  // kernels' tail path is always exercised too.
  const size_t kWords = 4093;
  const int kKernelReps = quick ? 200 : 2000;
  const int kInnerIters = 64;  // per timed rep: amortizes the clock reads

  std::vector<uint64_t> a(kWords), b(kWords), scratch(kWords);
  Rng rng(12345);
  for (size_t i = 0; i < kWords; ++i) {
    a[i] = rng.NextUint64();
    b[i] = rng.NextUint64();
  }
  // Pattern chosen so Intersects scans the whole span instead of
  // early-exiting: the operands share no bits.
  std::vector<uint64_t> disjoint(kWords);
  for (size_t i = 0; i < kWords; ++i) disjoint[i] = ~a[i];

  const double kOpBytes = 2.0 * 8.0 * static_cast<double>(kWords);
  const double kScanBytes = 8.0 * static_cast<double>(kWords);
  auto gbps = [&](double bytes_per_iter, double seconds) {
    return bytes_per_iter * kInnerIters / seconds / 1e9;
  };

  std::vector<KernelResult> kernels;
  {
    KernelResult r{"or", 0, 0, 0};
    // Bitwise ops are data-oblivious: repeatedly OR-ing into the same
    // destination costs the same per pass, so no per-rep re-initialization
    // is needed inside the timed region.
    scratch = a;
    double s = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        SeedOr(scratch.data(), b.data(), kWords);
        g_sink = scratch[kWords / 2];
      }
    });
    double u = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        bits::Or(scratch.data(), b.data(), kWords);
        g_sink = scratch[kWords / 2];
      }
    });
    r.seed_gbps = gbps(kOpBytes, s);
    r.unrolled_gbps = gbps(kOpBytes, u);
    r.speedup = s / u;
    kernels.push_back(r);
  }
  {
    KernelResult r{"andnot", 0, 0, 0};
    scratch = a;
    double s = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        SeedAndNot(scratch.data(), b.data(), kWords);
        g_sink = scratch[kWords / 2];
      }
    });
    double u = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        bits::AndNot(scratch.data(), b.data(), kWords);
        g_sink = scratch[kWords / 2];
      }
    });
    r.seed_gbps = gbps(kOpBytes, s);
    r.unrolled_gbps = gbps(kOpBytes, u);
    r.speedup = s / u;
    kernels.push_back(r);
  }
  {
    KernelResult r{"popcount", 0, 0, 0};
    double s = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        g_sink = SeedPopcount(a.data(), kWords);
      }
    });
    double u = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        g_sink = bits::Popcount(a.data(), kWords);
      }
    });
    r.seed_gbps = gbps(kScanBytes, s);
    r.unrolled_gbps = gbps(kScanBytes, u);
    r.speedup = s / u;
    kernels.push_back(r);
  }
  {
    KernelResult r{"intersects", 0, 0, 0};
    double s = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        g_sink = SeedIntersects(a.data(), disjoint.data(), kWords) ? 1 : 0;
      }
    });
    double u = BestSeconds(kKernelReps, [&] {
      for (int i = 0; i < kInnerIters; ++i) {
        g_sink = bits::Intersects(a.data(), disjoint.data(), kWords) ? 1 : 0;
      }
    });
    r.seed_gbps = gbps(kScanBytes, s);
    r.unrolled_gbps = gbps(kScanBytes, u);
    r.speedup = s / u;
    kernels.push_back(r);
  }

  std::printf("word kernels (%zu words, mode: %s)\n", kWords,
              bits::KernelMode());
  std::printf("%-12s %12s %14s %9s\n", "kernel", "seed GB/s", "kernel GB/s",
              "speedup");
  for (const KernelResult& r : kernels) {
    std::printf("%-12s %12.2f %14.2f %8.2fx\n", r.kernel.c_str(), r.seed_gbps,
                r.unrolled_gbps, r.speedup);
  }

  // -------------------------------------------------------------------------
  // Closure / reduce macro benchmarks on a Table 1-shaped DAG, scaled up so
  // the bitset rows span several cache lines.
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

  std::printf("\nclosure/reduce (n=%d, density=0.08)\n", kN);
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
      << "  \"kernel_mode\": \"" << bits::KernelMode() << "\",\n"
      << "  \"words\": " << kWords << ",\n"
      << "  \"quick_mode\": " << (quick ? "true" : "false") << ",\n"
      << "  \"kernels\": [\n";
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& r = kernels[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"kernel\": \"%s\", \"seed_gbps\": %.3f, "
                  "\"kernel_gbps\": %.3f, \"speedup\": %.3f}",
                  r.kernel.c_str(), r.seed_gbps, r.unrolled_gbps, r.speedup);
    out << line << (i + 1 == kernels.size() ? "" : ",") << "\n";
  }
  out << "  ],\n"
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
    for (const KernelResult& r : kernels) {
      if (r.unrolled_gbps < 0.8 * r.seed_gbps) {
        std::fprintf(stderr,
                     "FAIL: kernel '%s' regressed below the seed-style loop "
                     "(%.2f GB/s vs %.2f GB/s)\n",
                     r.kernel.c_str(), r.unrolled_gbps, r.seed_gbps);
        failed = true;
      }
    }
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
    std::printf("quick gate: all kernels at or above the seed baseline\n");
  }
  return 0;
}
