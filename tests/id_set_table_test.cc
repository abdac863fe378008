// IdSetTable contract: one entry per distinct set in first-insertion order,
// exact hit/insert accounting across merges, and lookups that stay correct
// across index growth.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/id_set_table.h"
#include "util/random.h"

namespace procmine {
namespace {

std::vector<int32_t> Entry(const IdSetTable& table, size_t i) {
  return {table[i].begin(), table[i].end()};
}

TEST(IdSetTableTest, KeepsFirstOccurrenceOrder) {
  IdSetTable table;
  EXPECT_TRUE(table.Insert(std::vector<int32_t>{1, 2, 3}));
  EXPECT_TRUE(table.Insert(std::vector<int32_t>{}));
  EXPECT_FALSE(table.Insert(std::vector<int32_t>{1, 2, 3}));
  EXPECT_TRUE(table.Insert(std::vector<int32_t>{1, 2}));
  EXPECT_FALSE(table.Insert(std::vector<int32_t>{}));
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.inserted(), 5);
  EXPECT_EQ(Entry(table, 0), (std::vector<int32_t>{1, 2, 3}));
  EXPECT_TRUE(Entry(table, 1).empty());
  EXPECT_EQ(Entry(table, 2), (std::vector<int32_t>{1, 2}));
}

TEST(IdSetTableTest, MergeDedupsAndSumsInserts) {
  IdSetTable a;
  a.Insert(std::vector<int32_t>{1});
  a.Insert(std::vector<int32_t>{1});
  IdSetTable b;
  b.Insert(std::vector<int32_t>{2});
  b.Insert(std::vector<int32_t>{1});
  b.Insert(std::vector<int32_t>{2});
  a.Merge(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.inserted(), 5);
  EXPECT_EQ(Entry(a, 0), (std::vector<int32_t>{1}));
  EXPECT_EQ(Entry(a, 1), (std::vector<int32_t>{2}));
}

TEST(IdSetTableTest, MatchesStdSetAcrossGrowth) {
  // Many small random sets: the index grows many times, and every insert
  // must agree with a std::set oracle on whether the set is new.
  Rng rng(17);
  IdSetTable table;
  std::set<std::vector<int32_t>> oracle;
  for (int i = 0; i < 20000; ++i) {
    std::vector<int32_t> ids;
    const int64_t len = rng.UniformRange(0, 6);
    for (int64_t j = 0; j < len; ++j) {
      ids.push_back(static_cast<int32_t>(rng.Uniform(12)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    EXPECT_EQ(table.Insert(ids), oracle.insert(ids).second) << "insert " << i;
  }
  EXPECT_EQ(table.size(), oracle.size());
  EXPECT_EQ(table.inserted(), 20000);
  std::set<std::vector<int32_t>> entries;
  for (size_t i = 0; i < table.size(); ++i) entries.insert(Entry(table, i));
  EXPECT_EQ(entries, oracle);
}

}  // namespace
}  // namespace procmine
