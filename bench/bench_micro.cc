// Micro benchmarks (google-benchmark) for the primitives behind the paper's
// complexity claims, plus ablations of our implementation choices:
//  * Algorithm 4 transitive reduction vs. the naive reference (O(VE) claim)
//  * Tarjan SCC
//  * precedence-edge collection (the O(n^2 m) scan of Algorithms 1-2),
//    against the original hash-set collector
//  * Algorithm 1 vs Algorithm 2 end-to-end on exactly-once logs
//  * Algorithm 2 end-to-end on a subset (walker) log

#include <benchmark/benchmark.h>

#include "../tests/reference_edge_collector.h"
#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "mine/edge_collector.h"
#include "mine/miner.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"

namespace procmine {
namespace {

DirectedGraph RandomDagGraph(int n, double density, uint64_t seed) {
  RandomDagOptions options;
  options.num_activities = n;
  options.edge_density = density;
  options.seed = seed;
  return GenerateRandomDag(options).graph();
}

void BM_TransitiveReduction(benchmark::State& state) {
  DirectedGraph g =
      RandomDagGraph(static_cast<int>(state.range(0)), 0.5, 42);
  for (auto _ : state) {
    auto reduced = TransitiveReduction(g);
    benchmark::DoNotOptimize(reduced);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TransitiveReduction)->Range(8, 512)->Complexity();

void BM_TransitiveReductionNaive(benchmark::State& state) {
  DirectedGraph g =
      RandomDagGraph(static_cast<int>(state.range(0)), 0.5, 42);
  for (auto _ : state) {
    auto reduced = TransitiveReductionNaive(g);
    benchmark::DoNotOptimize(reduced);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TransitiveReductionNaive)->Range(8, 128)->Complexity();

void BM_StronglyConnectedComponents(benchmark::State& state) {
  DirectedGraph g =
      RandomDagGraph(static_cast<int>(state.range(0)), 0.5, 43);
  // Add back edges to create SCCs.
  for (NodeId v = 0; v + 4 < g.num_nodes(); v += 5) g.AddEdge(v + 4, v);
  for (auto _ : state) {
    SccResult scc = StronglyConnectedComponents(g);
    benchmark::DoNotOptimize(scc);
  }
}
BENCHMARK(BM_StronglyConnectedComponents)->Range(8, 1024);

EventLog MakeExactlyOnceLog(int n, size_t m, uint64_t seed) {
  RandomDagOptions options;
  options.num_activities = n;
  options.edge_density = 0.4;
  options.seed = seed;
  ProcessGraph truth = GenerateRandomDag(options);
  return GenerateLinearExtensionLog(truth, m, seed + 1).ValueOrDie();
}

void BM_EdgeCollection(benchmark::State& state) {
  EventLog log = MakeExactlyOnceLog(static_cast<int>(state.range(0)), 200, 7);
  for (auto _ : state) {
    EdgeCounts counts = CollectPrecedenceEdges(log);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_EdgeCollection)->Range(8, 64);

// The same log through the original per-execution hash set and node map
// (tests/reference_edge_collector.h): the baseline of the pair table.
void BM_EdgeCollectionReference(benchmark::State& state) {
  EventLog log = MakeExactlyOnceLog(static_cast<int>(state.range(0)), 200, 7);
  for (auto _ : state) {
    EdgeCounts counts = reference::CollectPrecedenceEdges(log);
    benchmark::DoNotOptimize(counts);
  }
}
BENCHMARK(BM_EdgeCollectionReference)->Range(8, 64);

void BM_MineSpecialDag(benchmark::State& state) {
  EventLog log =
      MakeExactlyOnceLog(20, static_cast<size_t>(state.range(0)), 8);
  ProcessMiner miner({.algorithm = MinerAlgorithm::kSpecialDag});
  for (auto _ : state) {
    auto mined = miner.Mine(log);
    benchmark::DoNotOptimize(mined);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MineSpecialDag)->Range(16, 1024)->Complexity();

void BM_MineGeneralDag(benchmark::State& state) {
  EventLog log =
      MakeExactlyOnceLog(20, static_cast<size_t>(state.range(0)), 8);
  ProcessMiner miner({.algorithm = MinerAlgorithm::kGeneralDag});
  for (auto _ : state) {
    auto mined = miner.Mine(log);
    benchmark::DoNotOptimize(mined);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MineGeneralDag)->Range(16, 1024)->Complexity();

void BM_MineGeneralWalkerLog(benchmark::State& state) {
  // Algorithm 2 on a subset log, where executions repeat activity sets
  // heavily and steps 5-6 reduce each distinct set once.
  RandomDagOptions options;
  options.num_activities = 25;
  options.edge_density = PaperEdgeDensity(25);
  options.seed = 9;
  ProcessGraph truth = GenerateRandomDag(options);
  EventLog log =
      GenerateWalkLog(truth, {.num_executions = 500, .seed = 10})
          .ValueOrDie();
  ProcessMiner miner({.algorithm = MinerAlgorithm::kGeneralDag});
  for (auto _ : state) {
    auto mined = miner.Mine(log);
    benchmark::DoNotOptimize(mined);
  }
}
BENCHMARK(BM_MineGeneralWalkerLog);

}  // namespace
}  // namespace procmine
