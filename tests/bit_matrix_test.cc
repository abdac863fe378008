// Property tests for the flat BitMatrix and the bits:: word kernels.
//
// The kernels (8x unrolled scalar, or AVX2 under -DPROCMINE_SIMD=ON) are
// pitted against the plain one-word-at-a-time DynamicBitset reference on
// random sizes — including ragged tail words — so both dispatch paths are
// proven bit-identical to the same oracle. The same strategy covers the
// blocked transitive reduction: it is compared against the naive reduction
// on random DAGs.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic_bitset.h"
#include "graph/digraph.h"
#include "graph/transitive_reduction.h"
#include "util/bit_matrix.h"
#include "util/random.h"

namespace procmine {
namespace {

// Bit sizes that exercise every tail-word shape: sub-word, exact word
// multiples, one-past boundaries, and spans beyond the 8-word unroll.
const size_t kSizes[] = {1,   3,   63,  64,  65,  127, 128, 129,
                         191, 192, 255, 256, 257, 511, 512, 1000};

DynamicBitset RandomBitset(size_t size, double density, Rng* rng) {
  DynamicBitset b(size);
  for (size_t i = 0; i < size; ++i) {
    if (rng->NextDouble() < density) b.Set(i);
  }
  return b;
}

// Copies a DynamicBitset into row `r` of a matrix.
void FillRow(const DynamicBitset& src, BitMatrix* m, size_t r) {
  for (size_t i = 0; i < src.size(); ++i) {
    if (src.Test(i)) m->Set(r, i);
  }
}

bool RowEquals(ConstBitRow row, const DynamicBitset& want) {
  if (row.size() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    if (row.Test(i) != want.Test(i)) return false;
  }
  return true;
}

TEST(BitsKernelTest, MatchDynamicBitsetOnRandomSizes) {
  Rng rng(2024);
  for (size_t size : kSizes) {
    for (int trial = 0; trial < 8; ++trial) {
      DynamicBitset ra = RandomBitset(size, 0.3, &rng);
      DynamicBitset rb = RandomBitset(size, 0.3, &rng);

      BitMatrix m(4, size);
      FillRow(ra, &m, 0);  // Or target
      FillRow(ra, &m, 1);  // And target
      FillRow(ra, &m, 2);  // AndNot target
      BitMatrix other(1, size);
      FillRow(rb, &other, 0);

      DynamicBitset or_ref = ra, and_ref = ra, andnot_ref = ra;
      or_ref.OrWith(rb);
      and_ref.AndWith(rb);
      andnot_ref.AndNotWith(rb);

      m[0].OrWith(other[0]);
      m[1].AndWith(other[0]);
      m[2].AndNotWith(other[0]);

      EXPECT_TRUE(RowEquals(m[0], or_ref)) << "Or size=" << size;
      EXPECT_TRUE(RowEquals(m[1], and_ref)) << "And size=" << size;
      EXPECT_TRUE(RowEquals(m[2], andnot_ref)) << "AndNot size=" << size;

      EXPECT_EQ(m[0].Count(), or_ref.Count()) << "size=" << size;
      EXPECT_EQ(m[2].Count(), andnot_ref.Count()) << "size=" << size;
      EXPECT_EQ(m[3].Intersects(other[0]), DynamicBitset(size).Intersects(rb));
      BitMatrix a_only(1, size);
      FillRow(ra, &a_only, 0);
      EXPECT_EQ(a_only[0].Intersects(other[0]), ra.Intersects(rb))
          << "Intersects size=" << size;
      EXPECT_EQ(a_only[0].Any(), ra.Any()) << "Any size=" << size;
      EXPECT_EQ(a_only[0].None(), ra.None()) << "None size=" << size;
    }
  }
}

TEST(BitsKernelTest, KernelModeIsDeclared) {
  // Self-description used by the benches; whichever path is compiled in
  // must name itself.
#if defined(PROCMINE_SIMD) && defined(__AVX2__)
  EXPECT_STREQ(bits::KernelMode(), "avx2");
#else
  EXPECT_STREQ(bits::KernelMode(), "scalar-unrolled");
#endif
}

TEST(BitMatrixTest, RowsAreCacheLineAligned) {
  for (size_t cols : kSizes) {
    BitMatrix m(5, cols);
    EXPECT_EQ(m.row_stride() % BitMatrix::kWordsPerLine, 0u);
    EXPECT_GE(m.row_stride(), m.words_per_row());
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowWords(r)) %
                    BitMatrix::kAlignment,
                0u)
          << "row " << r << " cols=" << cols;
    }
  }
}

TEST(BitMatrixTest, SetTestResetClear) {
  BitMatrix m(3, 130);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 130u);
  EXPECT_EQ(m.Count(), 0u);
  m.Set(0, 0);
  m.Set(1, 63);
  m.Set(1, 64);
  m.Set(2, 129);
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_TRUE(m.Test(1, 63));
  EXPECT_TRUE(m.Test(1, 64));
  EXPECT_TRUE(m.Test(2, 129));
  EXPECT_FALSE(m.Test(0, 1));
  EXPECT_EQ(m.Count(), 4u);
  m.Reset(1, 63);
  EXPECT_FALSE(m.Test(1, 63));
  m.Clear();
  EXPECT_EQ(m.Count(), 0u);
}

TEST(BitMatrixTest, WholeMatrixOrAndNotMatchPerBitReference) {
  Rng rng(7);
  for (size_t cols : {65u, 200u, 513u}) {
    const size_t rows = 9;  // not a multiple of anything interesting
    BitMatrix a(rows, cols), b(rows, cols);
    std::vector<DynamicBitset> ra, rb;
    for (size_t r = 0; r < rows; ++r) {
      ra.push_back(RandomBitset(cols, 0.4, &rng));
      rb.push_back(RandomBitset(cols, 0.4, &rng));
      FillRow(ra[r], &a, r);
      FillRow(rb[r], &b, r);
    }
    BitMatrix or_m = a;
    or_m.OrWith(b);
    BitMatrix andnot_m = a;
    andnot_m.AndNotWith(b);
    for (size_t r = 0; r < rows; ++r) {
      DynamicBitset or_ref = ra[r], andnot_ref = ra[r];
      or_ref.OrWith(rb[r]);
      andnot_ref.AndNotWith(rb[r]);
      EXPECT_TRUE(RowEquals(or_m[r], or_ref)) << "row " << r;
      EXPECT_TRUE(RowEquals(andnot_m[r], andnot_ref)) << "row " << r;
    }
  }
}

TEST(BitMatrixTest, PaddingBitsStayZero) {
  // cols=70 leaves 54 phantom bits in word 1 plus 6 padding words per row;
  // none of them may ever become visible through Count().
  BitMatrix a(4, 70), b(4, 70);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 70; ++c) {
      a.Set(r, c);
      b.Set(r, c);
    }
  }
  EXPECT_EQ(a.Count(), 4u * 70u);
  a.OrWith(b);
  EXPECT_EQ(a.Count(), 4u * 70u);
  EXPECT_EQ(a[0].Count(), 70u);
  a.AndNotWith(b);
  EXPECT_EQ(a.Count(), 0u);
}

TEST(BitMatrixTest, CopyMoveEquality) {
  BitMatrix a(3, 100);
  a.Set(0, 5);
  a.Set(2, 99);
  BitMatrix copied = a;
  EXPECT_TRUE(copied == a);
  copied.Set(1, 1);
  EXPECT_FALSE(copied == a);

  BitMatrix moved = std::move(copied);
  EXPECT_TRUE(moved.Test(1, 1));
  EXPECT_TRUE(moved.Test(0, 5));

  BitMatrix assigned;
  assigned = a;
  EXPECT_TRUE(assigned == a);
  assigned = std::move(moved);
  EXPECT_TRUE(assigned.Test(1, 1));
}

TEST(BitMatrixTest, EmptyMatrix) {
  BitMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_EQ(m.Count(), 0u);
  BitMatrix copy = m;
  EXPECT_TRUE(copy == m);
}

// ---------------------------------------------------------------------------
// Blocked transitive reduction vs the naive reference.

DirectedGraph RandomDag(NodeId n, double density, Rng* rng) {
  DirectedGraph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng->NextDouble() < density) g.AddEdge(u, v);
    }
  }
  return g;
}

TEST(BlockedReductionTest, AnyPanelWidthMatchesNaive) {
  Rng rng(99);
  for (NodeId n : {5, 30, 70, 140}) {
    DirectedGraph g = RandomDag(n, 0.15, &rng);
    auto naive = TransitiveReductionNaive(g);
    ASSERT_TRUE(naive.ok());
    for (size_t panel_words : {size_t{0}, size_t{1}, size_t{2}, size_t{64}}) {
      auto blocked = TransitiveReductionBlocked(g, panel_words);
      ASSERT_TRUE(blocked.ok());
      EXPECT_TRUE(*blocked == *naive)
          << "n=" << n << " panel_words=" << panel_words;
    }
    auto unblocked = TransitiveReduction(g);
    ASSERT_TRUE(unblocked.ok());
    EXPECT_TRUE(*unblocked == *naive) << "n=" << n;
  }
}

TEST(BlockedReductionTest, RejectsCycles) {
  DirectedGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 0);
  EXPECT_FALSE(TransitiveReductionBlocked(g, 1).ok());
}

}  // namespace
}  // namespace procmine
