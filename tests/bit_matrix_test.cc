// Property tests for the packed BitMatrix and the bits:: word loops.
//
// Row unions and counts are pitted against the plain
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

      BitMatrix m(1, size);
      FillRow(ra, &m, 0);
      BitMatrix other(1, size);
      FillRow(rb, &other, 0);

      DynamicBitset or_ref = ra;
      or_ref.OrWith(rb);
      m[0].OrWith(other[0]);

      EXPECT_TRUE(RowEquals(m[0], or_ref)) << "Or size=" << size;
      EXPECT_EQ(m[0].Count(), or_ref.Count()) << "size=" << size;
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
  for (size_t r = 0; r < 4; ++r) a[r].OrWith(b[r]);
  EXPECT_EQ(a.Count(), 4u * 70u);
  EXPECT_EQ(a[0].Count(), 70u);
  a[1].CopyFrom(b[0]);
  EXPECT_EQ(a[1].Count(), 70u);
  a.Clear();
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
