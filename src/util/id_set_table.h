// IdSetTable: a flat table of distinct id sets, keys only.
//
// Algorithm 2's steps 5-6 depend only on each execution's activity set, so
// the general-DAG miner reduces each distinct set once. This table gathers
// those sets: every set's ids sit back to back in one pool, and an
// open-addressing index of (hash tag, entry) slots finds a duplicate with a
// single probe sequence. There is no per-set allocation and no per-set
// value — a set costs its ids, one offset and about two index slots.
//
// Entries keep insertion order, so a table filled in log order (or merged
// from per-shard tables in shard order) lists the sets deterministically.

#ifndef PROCMINE_UTIL_ID_SET_TABLE_H_
#define PROCMINE_UTIL_ID_SET_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace procmine {

class IdSetTable {
 public:
  /// Adds the set `ids` (in the caller's canonical order, e.g. sorted)
  /// unless an equal one is present. Returns whether it was added.
  bool Insert(std::span<const int32_t> ids) {
    ++inserted_;
    return Add(ids);
  }

  /// Inserts every set of `other`, in its order; inserted() adds other's.
  void Merge(const IdSetTable& other);

  /// Number of distinct sets.
  size_t size() const { return offsets_.size() - 1; }
  /// Insert calls so far, duplicates included, summed over merged tables.
  int64_t inserted() const { return inserted_; }
  /// Entry `i`'s ids.
  std::span<const int32_t> operator[](size_t i) const {
    return {pool_.data() + offsets_[i], pool_.data() + offsets_[i + 1]};
  }

 private:
  bool Add(std::span<const int32_t> ids);

  int64_t inserted_ = 0;
  std::vector<int32_t> pool_;
  std::vector<size_t> offsets_{0};
  /// Open-addressing index, a power of two long: (tag << 32) | (entry + 1),
  /// 0 = empty. The tag is the hash's high word, which also picks the home
  /// slot, so growing never rehashes a set.
  std::vector<uint64_t> slots_;
};

}  // namespace procmine

#endif  // PROCMINE_UTIL_ID_SET_TABLE_H_
