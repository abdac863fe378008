// Property tests for the packed BitMatrix and the bits:: word loops.
//
// Row unions, differences and counts are pitted against the plain
// DynamicBitset reference on random sizes, including ragged tail words.

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dynamic_bitset.h"
#include "util/bit_matrix.h"
#include "util/random.h"

namespace procmine {
namespace {

// Bit sizes that exercise every tail-word shape: sub-word, exact word
// multiples, one-past boundaries, and multi-word spans.
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

      BitMatrix m(2, size);
      FillRow(ra, &m, 0);  // Or target
      FillRow(ra, &m, 1);  // AndNot target
      BitMatrix other(1, size);
      FillRow(rb, &other, 0);

      DynamicBitset or_ref = ra, andnot_ref = ra;
      or_ref.OrWith(rb);
      andnot_ref.AndNotWith(rb);

      m[0].OrWith(other[0]);
      bits::AndNot(m.RowWords(1), other.RowWords(0), m.words_per_row());

      EXPECT_TRUE(RowEquals(m[0], or_ref)) << "Or size=" << size;
      EXPECT_TRUE(RowEquals(m[1], andnot_ref)) << "AndNot size=" << size;

      EXPECT_EQ(m[0].Count(), or_ref.Count()) << "size=" << size;
      EXPECT_EQ(m[1].Count(), andnot_ref.Count()) << "size=" << size;
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
  // cols=70 leaves 58 phantom bits in each row's second word; none of them
  // may ever become visible through Count().
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

}  // namespace
}  // namespace procmine
