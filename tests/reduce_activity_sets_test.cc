// Property and contract tests for Algorithm 2's steps 5-6 kernel,
// mine_internal::ReduceActivitySets: the union of the transitive reductions
// of the subgraphs a DAG's activity sets induce, computed over rank-ordered
// bit rows. The oracle reduces every set with InducedSubgraph +
// TransitiveReduction (reduce_every_execution.h).

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "mine/general_dag_miner.h"
#include "reduce_every_execution.h"
#include "util/budget.h"
#include "util/id_set_table.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace procmine {
namespace {

using mine_internal::ReduceActivitySets;

// A DAG whose edges climb in a shuffled id order, so a topological rank is
// not the host id.
DirectedGraph RandomDag(NodeId n, double density, Rng* rng) {
  std::vector<NodeId> perm(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<size_t>(v)] = v;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Uniform(i)]);
  }
  DirectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng->NextDouble() < density) {
        g.AddEdge(perm[static_cast<size_t>(u)], perm[static_cast<size_t>(v)]);
      }
    }
  }
  return g;
}

// Random subsets of [0, n) at several sizes, plus the empty set, every
// singleton of a few ids and the full set (p > 64 once n > 64).
std::vector<std::vector<NodeId>> RandomSets(NodeId n, Rng* rng) {
  std::vector<std::vector<NodeId>> sets;
  sets.emplace_back();
  for (NodeId v : {NodeId{0}, n / 2, n - 1}) sets.push_back({v});
  std::vector<NodeId> all(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) all[static_cast<size_t>(v)] = v;
  sets.push_back(all);
  for (double keep : {0.05, 0.3, 0.6, 0.95}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<NodeId> set;
      for (NodeId v = 0; v < n; ++v) {
        if (rng->NextDouble() < keep) set.push_back(v);
      }
      sets.push_back(std::move(set));
    }
  }
  // The kernel does not need ascending members.
  std::reverse(sets.back().begin(), sets.back().end());
  return sets;
}

IdSetTable ToTable(const std::vector<std::vector<NodeId>>& sets) {
  IdSetTable table;
  for (const std::vector<NodeId>& set : sets) table.Insert(set);
  return table;
}

bool AdjacencyAscending(const DirectedGraph& g) {
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const std::vector<NodeId>& out = g.OutNeighbors(v);
    if (!std::is_sorted(out.begin(), out.end())) return false;
  }
  return true;
}

TEST(ReduceActivitySetsTest, MatchesReducingEverySet) {
  Rng rng(31337);
  for (NodeId n : {1, 63, 64, 65, 130, 300}) {
    for (double density : {0.1, 0.9}) {
      const DirectedGraph dag = RandomDag(n, density, &rng);
      const std::vector<std::vector<NodeId>> sets = RandomSets(n, &rng);
      const IdSetTable table = ToTable(sets);
      const DirectedGraph want = ReduceEverySet(dag, sets);
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        for (size_t chunk : {size_t{1}, size_t{7}, size_t{0}}) {
          const std::string where = "n=" + std::to_string(n) +
                                    " density=" + std::to_string(density) +
                                    " threads=" + std::to_string(threads) +
                                    " chunk=" + std::to_string(chunk);
          Result<DirectedGraph> got =
              ReduceActivitySets(dag, table, &pool, chunk, nullptr, nullptr);
          ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
          EXPECT_TRUE(*got == want) << where;
          EXPECT_TRUE(AdjacencyAscending(*got)) << where;
        }
      }
    }
  }
}

TEST(ReduceActivitySetsTest, EmptyAndSingletonSets) {
  DirectedGraph dag(4);
  dag.AddEdge(0, 1);
  Result<DirectedGraph> none =
      ReduceActivitySets(dag, ToTable({{}, {2}}), nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->num_nodes(), 4);
  EXPECT_EQ(none->num_edges(), 0);
  Result<DirectedGraph> pair =
      ReduceActivitySets(dag, ToTable({{0, 1}}), nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(pair->Edges(), (std::vector<Edge>{{0, 1}}));
  Result<DirectedGraph> no_sets =
      ReduceActivitySets(dag, IdSetTable(), nullptr, 0, nullptr, nullptr);
  ASSERT_TRUE(no_sets.ok());
  EXPECT_EQ(no_sets->num_edges(), 0);
}

TEST(ReduceActivitySetsTest, CyclicHostIsFailedPrecondition) {
  DirectedGraph host(4);
  host.AddEdge(0, 1);
  host.AddEdge(1, 2);
  host.AddEdge(2, 0);
  host.AddEdge(0, 3);
  // The subgraph {0, 1, 3} induces is acyclic, but the host is ranked once
  // per reduce, so a cyclic host fails whatever the sets are.
  Result<DirectedGraph> got = ReduceActivitySets(
      host, ToTable({{0, 1, 3}}), nullptr, 0, nullptr, nullptr);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReduceActivitySetsTest, BudgetCutReturnsTheDag) {
  Rng rng(7);
  const DirectedGraph dag = RandomDag(65, 0.5, &rng);
  const IdSetTable table = ToTable(RandomSets(65, &rng));
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{0}}) {
      RunBudget budget(RunBudget::Limits{.deadline_ms = 0});
      budget.Start();
      DegradationInfo degradation;
      Result<DirectedGraph> got =
          ReduceActivitySets(dag, table, &pool, chunk, &budget, &degradation);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(*got == dag);
      EXPECT_TRUE(degradation.degraded);
      EXPECT_EQ(degradation.cut_phase, "general_dag.reduce");
      EXPECT_EQ(degradation.dropped, mine_internal::kReduceDropped);
    }
  }
}

}  // namespace
}  // namespace procmine
