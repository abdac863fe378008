// DynamicBitset: a fixed-capacity bitset sized at runtime, one word at a
// time.
//
// The seed's descendant-set representation for the transitive closure /
// reduction algorithms (Algorithm 4 of the paper unions successor
// descendant sets per vertex). The library now uses util/bit_matrix.h; this
// plain version stays as the scalar oracle of bit_matrix_test and the
// seed baseline of bench_kernels.

#ifndef PROCMINE_TESTS_DYNAMIC_BITSET_H_
#define PROCMINE_TESTS_DYNAMIC_BITSET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace procmine {

/// Bitset whose size is fixed at construction. All operations are bounds
/// checked in debug builds.
class DynamicBitset {
 public:
  DynamicBitset() : size_(0) {}
  explicit DynamicBitset(size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  size_t size() const { return size_; }

  void Set(size_t i) {
    PROCMINE_DCHECK(i < size_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }

  void Reset(size_t i) {
    PROCMINE_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  bool Test(size_t i) const {
    PROCMINE_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  /// Sets all bits to zero. std::fill compiles to one memset, not the
  /// element loop the seed used.
  void Clear() { std::fill(words_.begin(), words_.end(), uint64_t{0}); }

  /// True iff any bit is set. Early-exits on the first nonzero word — hot
  /// paths use this instead of `Count() != 0`, which always scans every
  /// word and popcounts it.
  bool Any() const {
    for (uint64_t w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// True iff no bit is set.
  bool None() const { return !Any(); }

  /// this |= other. Sizes must match.
  void OrWith(const DynamicBitset& other) {
    PROCMINE_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// this &= other. Sizes must match.
  void AndWith(const DynamicBitset& other) {
    PROCMINE_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// this &= ~other. Sizes must match.
  void AndNotWith(const DynamicBitset& other) {
    PROCMINE_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  }

  /// True iff this and other share any set bit.
  bool Intersects(const DynamicBitset& other) const {
    PROCMINE_DCHECK(size_ == other.size_);
    for (size_t i = 0; i < words_.size(); ++i) {
      if (words_[i] & other.words_[i]) return true;
    }
    return false;
  }

  /// Number of set bits.
  size_t Count() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(__builtin_popcountll(w));
    return n;
  }

  friend bool operator==(const DynamicBitset& a, const DynamicBitset& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  size_t size_;
  std::vector<uint64_t> words_;
};

}  // namespace procmine

#endif  // PROCMINE_TESTS_DYNAMIC_BITSET_H_
