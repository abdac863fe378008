#include "graph/transitive_reduction.h"

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "util/random.h"

namespace procmine {
namespace {

TEST(TransitiveReductionTest, RemovesShortcutEdge) {
  // 0 -> 1 -> 2 plus shortcut 0 -> 2.
  DirectedGraph g = DirectedGraph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  auto reduced = TransitiveReduction(g);
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(reduced->HasEdge(0, 1));
  EXPECT_TRUE(reduced->HasEdge(1, 2));
  EXPECT_FALSE(reduced->HasEdge(0, 2));
  EXPECT_EQ(reduced->num_edges(), 2);
}

TEST(TransitiveReductionTest, DiamondIsAlreadyReduced) {
  DirectedGraph g =
      DirectedGraph::FromEdges(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  auto reduced = TransitiveReduction(g);
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(*reduced == g);
}

TEST(TransitiveReductionTest, LongShortcuts) {
  // Chain 0..4 plus shortcuts of every length.
  DirectedGraph g = DirectedGraph::FromEdges(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {0, 3}, {0, 4}, {1, 3},
          {1, 4}, {2, 4}});
  auto reduced = TransitiveReduction(g);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->num_edges(), 4);
  for (NodeId i = 0; i < 4; ++i) EXPECT_TRUE(reduced->HasEdge(i, i + 1));
}

TEST(TransitiveReductionTest, FailsOnCycle) {
  DirectedGraph g = DirectedGraph::FromEdges(2, {{0, 1}, {1, 0}});
  EXPECT_FALSE(TransitiveReduction(g).ok());
  EXPECT_FALSE(TransitiveReductionNaive(g).ok());
}

TEST(TransitiveReductionTest, EmptyAndEdgeless) {
  auto r1 = TransitiveReduction(DirectedGraph());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->num_nodes(), 0);
  auto r2 = TransitiveReduction(DirectedGraph(5));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->num_edges(), 0);
}

TEST(TransitiveReductionTest, PreservesClosure) {
  DirectedGraph g = DirectedGraph::FromEdges(
      6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {0, 3}, {3, 4}, {1, 4}, {4, 5},
          {0, 5}});
  auto reduced = TransitiveReduction(g);
  ASSERT_TRUE(reduced.ok());
  EXPECT_TRUE(TransitiveClosure(g) == TransitiveClosure(*reduced));
}

TEST(TransitiveReductionTest, PaperExample6Graph) {
  // The post-step-3 graph of Example 6: A=0,B=1,C=2,D=3,E=4 with edges
  // A->B, A->C, A->D, A->E, B->E, C->D, C->E, D->E.
  DirectedGraph g = DirectedGraph::FromEdges(
      5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  auto reduced = TransitiveReduction(g);
  ASSERT_TRUE(reduced.ok());
  // Expected: Figure 1's process graph A->B, A->C, B->E, C->D, D->E.
  DirectedGraph expected =
      DirectedGraph::FromEdges(5, {{0, 1}, {0, 2}, {1, 4}, {2, 3}, {3, 4}});
  EXPECT_TRUE(*reduced == expected);
}

// Property sweep: Algorithm 4 (bitset) must agree with the naive
// path-counting reference on random DAGs of varying size and density.
class TransitiveReductionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TransitiveReductionPropertyTest, MatchesNaiveReference) {
  auto [n, density] = GetParam();
  Rng rng(static_cast<uint64_t>(n * 1000) ^
          static_cast<uint64_t>(density * 100));
  for (int trial = 0; trial < 10; ++trial) {
    DirectedGraph g(n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        if (rng.Bernoulli(density)) g.AddEdge(i, j);
      }
    }
    auto fast = TransitiveReduction(g);
    auto naive = TransitiveReductionNaive(g);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_TRUE(*fast == *naive) << "n=" << n << " density=" << density
                                 << " trial=" << trial;
    // The reduction's closure must equal the original's.
    EXPECT_TRUE(TransitiveClosure(g) == TransitiveClosure(*fast));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransitiveReductionPropertyTest,
    ::testing::Combine(::testing::Values(2, 5, 10, 20, 64, 65, 70, 140),
                       ::testing::Values(0.1, 0.3, 0.6, 0.9)));

// Uniqueness: reducing twice is a fixpoint.
TEST(TransitiveReductionTest, Idempotent) {
  Rng rng(4242);
  for (int trial = 0; trial < 10; ++trial) {
    DirectedGraph g(15);
    for (NodeId i = 0; i < 15; ++i) {
      for (NodeId j = i + 1; j < 15; ++j) {
        if (rng.Bernoulli(0.4)) g.AddEdge(i, j);
      }
    }
    auto once = TransitiveReduction(g);
    ASSERT_TRUE(once.ok());
    auto twice = TransitiveReduction(*once);
    ASSERT_TRUE(twice.ok());
    EXPECT_TRUE(*once == *twice);
  }
}

}  // namespace
}  // namespace procmine
