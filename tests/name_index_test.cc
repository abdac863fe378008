// NameIndex contract: first-appearance ids that agree with an
// unordered_map oracle at every table size, for names that are prefixes of
// one another, the empty name, and names that share a home slot or a whole
// hash tag.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "log/name_index.h"
#include "util/hash.h"
#include "util/random.h"

namespace procmine {
namespace {

/// Interns `names` in order into a fresh index and checks each id, the
/// table, and Find of every name against an unordered_map oracle.
void ExpectMatchesOracle(const std::vector<std::string>& names,
                         const std::string& context) {
  std::vector<std::string_view> table;
  NameIndex index(&table);
  std::unordered_map<std::string_view, int32_t> oracle;
  for (const std::string& name : names) {
    auto [it, inserted] =
        oracle.emplace(name, static_cast<int32_t>(oracle.size()));
    ASSERT_EQ(index.Intern(name), it->second) << context << " '" << name << "'";
  }
  ASSERT_EQ(table.size(), oracle.size()) << context;
  for (const auto& [name, id] : oracle) {
    ASSERT_EQ(table[static_cast<size_t>(id)], name) << context;
    ASSERT_EQ(index.Find(name), id) << context;
  }
}

/// `n` distinct random names of 0-20 bytes over a small alphabet, so short
/// names repeat as prefixes of longer ones.
std::vector<std::string> RandomNames(Rng* rng, size_t n) {
  std::vector<std::string> names;
  std::unordered_map<std::string, bool> seen;
  while (names.size() < n) {
    std::string name;
    const int64_t len = rng->UniformRange(0, 20);
    for (int64_t i = 0; i < len; ++i) {
      name.push_back(static_cast<char>('a' + rng->Uniform(4)));
    }
    if (seen.emplace(name, true).second) names.push_back(std::move(name));
  }
  return names;
}

TEST(NameIndexTest, EmptyIndexFindsNothing) {
  std::vector<std::string_view> table;
  NameIndex index(&table);
  EXPECT_EQ(index.Find(""), -1);
  EXPECT_EQ(index.Find("a"), -1);
}

TEST(NameIndexTest, EmptyNameIsAName) {
  std::vector<std::string_view> table;
  NameIndex index(&table);
  EXPECT_EQ(index.Intern("a"), 0);
  EXPECT_EQ(index.Find(""), -1);
  EXPECT_EQ(index.Intern(""), 1);
  EXPECT_EQ(index.Intern("a"), 0);
  EXPECT_EQ(index.Intern(""), 1);
  EXPECT_EQ(index.Find(""), 1);
  EXPECT_EQ(table, (std::vector<std::string_view>{"a", ""}));
}

TEST(NameIndexTest, PrefixesAreDistinctNames) {
  // Every prefix of one long name, longest first and then shortest first,
  // so each lookup sees names that agree with it on a prefix.
  const std::string word = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<std::string> names;
  for (size_t len = word.size() + 1; len-- > 0;) {
    names.push_back(word.substr(0, len));
  }
  for (size_t len = 0; len <= word.size(); ++len) {
    names.push_back(word.substr(0, len));
  }
  ExpectMatchesOracle(names, "prefixes");
}

TEST(NameIndexTest, MatchesOracleAtEveryGrowthStep) {
  // Sizes on both sides of every doubling of the slot array, up to 10^5
  // names, each interned with repeats mixed in.
  std::vector<size_t> sizes = {0, 1, 2, 100000};
  for (size_t p = 4; p <= (size_t{1} << 17); p *= 2) {
    for (size_t n : {p - 1, p, p + 1}) {
      if (n <= 100000) sizes.push_back(n);
    }
  }
  Rng rng(23);
  for (size_t n : sizes) {
    std::vector<std::string> distinct = RandomNames(&rng, n);
    std::vector<std::string> names;
    for (size_t i = 0; i < distinct.size(); ++i) {
      names.push_back(distinct[i]);
      // About one new name in four is followed by a repeat of an earlier
      // one.
      if (rng.Uniform(4) == 0) names.push_back(distinct[rng.Uniform(i + 1)]);
    }
    ExpectMatchesOracle(names, "n=" + std::to_string(n));
  }
}

TEST(NameIndexTest, CollidingHomeSlotsStayDistinct) {
  // Names whose hash tags agree in their low 10 bits share a home slot in
  // every table of up to 1024 slots, so each probe walks past the others.
  std::unordered_map<uint64_t, std::vector<std::string>> by_home;
  std::vector<std::string> colliding;
  for (int i = 0; colliding.empty(); ++i) {
    std::string name = "n" + std::to_string(i);
    const uint64_t home =
        (HashBytes(name.data(), name.size()) >> 32) & 1023;
    std::vector<std::string>& group = by_home[home];
    group.push_back(std::move(name));
    if (group.size() == 40) colliding = group;
  }
  std::vector<std::string> names = colliding;
  names.insert(names.end(), colliding.rbegin(), colliding.rend());
  ExpectMatchesOracle(names, "colliding home slots");
}

TEST(NameIndexTest, EqualTagsStillCompareBytes) {
  // Two different names with the same 32-bit hash tag: the index must tell
  // them apart by their bytes. Among 2^18 names a pair is all but certain.
  std::vector<std::pair<uint64_t, std::string>> tagged;
  for (int i = 0; i < (1 << 18); ++i) {
    std::string name = "case_" + std::to_string(i);
    tagged.emplace_back(HashBytes(name.data(), name.size()) >> 32,
                        std::move(name));
  }
  std::sort(tagged.begin(), tagged.end());
  std::vector<std::string> twins;
  for (size_t i = 1; i < tagged.size() && twins.empty(); ++i) {
    if (tagged[i].first == tagged[i - 1].first) {
      twins = {tagged[i - 1].second, tagged[i].second};
    }
  }
  ASSERT_EQ(twins.size(), 2u) << "no tag collision among 2^18 names";
  ExpectMatchesOracle({twins[0], twins[1], twins[0], twins[1]}, "twins");
  std::vector<std::string_view> table;
  NameIndex index(&table);
  EXPECT_EQ(index.Intern(twins[0]), 0);
  EXPECT_EQ(index.Find(twins[1]), -1);
}

}  // namespace
}  // namespace procmine
