#include "dynamic_bitset.h"

#include <gtest/gtest.h>

namespace procmine {
namespace {

TEST(DynamicBitsetTest, StartsAllZero) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  for (size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.Test(i));
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DynamicBitsetTest, SetAndTest) {
  DynamicBitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_FALSE(b.Test(65));
  EXPECT_EQ(b.Count(), 4u);
}

TEST(DynamicBitsetTest, Reset) {
  DynamicBitset b(10);
  b.Set(5);
  EXPECT_TRUE(b.Test(5));
  b.Reset(5);
  EXPECT_FALSE(b.Test(5));
}

TEST(DynamicBitsetTest, Clear) {
  DynamicBitset b(200);
  for (size_t i = 0; i < 200; i += 3) b.Set(i);
  b.Clear();
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DynamicBitsetTest, OrWith) {
  DynamicBitset a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(2);
  b.Set(65);
  a.OrWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(2));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 3u);
  // b unchanged.
  EXPECT_FALSE(b.Test(1));
}

TEST(DynamicBitsetTest, AndWith) {
  DynamicBitset a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  a.AndWith(b);
  EXPECT_FALSE(a.Test(1));
  EXPECT_FALSE(a.Test(2));
  EXPECT_TRUE(a.Test(65));
  EXPECT_EQ(a.Count(), 1u);
}

TEST(DynamicBitsetTest, AndNotWith) {
  DynamicBitset a(70), b(70);
  a.Set(1);
  a.Set(65);
  b.Set(65);
  b.Set(2);
  a.AndNotWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_FALSE(a.Test(2));
  EXPECT_FALSE(a.Test(65));
  EXPECT_EQ(a.Count(), 1u);
  // b unchanged.
  EXPECT_EQ(b.Count(), 2u);
}

TEST(DynamicBitsetTest, AnyAndNone) {
  DynamicBitset b(200);
  EXPECT_FALSE(b.Any());
  EXPECT_TRUE(b.None());
  b.Set(199);  // last bit of the tail word
  EXPECT_TRUE(b.Any());
  EXPECT_FALSE(b.None());
  b.Reset(199);
  EXPECT_FALSE(b.Any());
  EXPECT_TRUE(b.None());
  DynamicBitset empty(0);
  EXPECT_FALSE(empty.Any());
  EXPECT_TRUE(empty.None());
}

TEST(DynamicBitsetTest, Intersects) {
  DynamicBitset a(128), b(128);
  a.Set(100);
  b.Set(101);
  EXPECT_FALSE(a.Intersects(b));
  b.Set(100);
  EXPECT_TRUE(a.Intersects(b));
}

TEST(DynamicBitsetTest, Equality) {
  DynamicBitset a(64), b(64), c(65);
  a.Set(3);
  b.Set(3);
  EXPECT_TRUE(a == b);
  b.Set(4);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a == c);  // size differs
}

TEST(DynamicBitsetTest, ZeroSize) {
  DynamicBitset b(0);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.Count(), 0u);
}

TEST(DynamicBitsetTest, CountAcrossWords) {
  DynamicBitset b(256);
  for (size_t i = 0; i < 256; ++i) b.Set(i);
  EXPECT_EQ(b.Count(), 256u);
}

}  // namespace
}  // namespace procmine
