// BitMatrix: a rows x cols bit matrix stored as packed rows in one vector,
// plus the word loops (`bits::` namespace) its row unions and counts use.
//
// The closure and reduction algorithms (Algorithm 4 of the paper) are
// whole-row unions over per-vertex descendant sets. Each row is
// words_per_row() = (cols + 63) / 64 words and the rows are stored back to
// back, so walking rows in order is a linear scan.
// On the paper's 10-100-activity graphs a row is one or two words, so every
// loop here is the plain one-word-at-a-time loop.
//
// Bits at columns >= cols() in a row's last word are kept zero by every
// mutating member, so whole-row loops never leak phantom bits into Count().

#ifndef PROCMINE_UTIL_BIT_MATRIX_H_
#define PROCMINE_UTIL_BIT_MATRIX_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace procmine {

namespace bits {

/// dst |= src over `n` words.
inline void Or(uint64_t* dst, const uint64_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] |= src[i];
}

/// Number of set bits in the first `n` words.
inline size_t Popcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += static_cast<size_t>(std::popcount(w[i]));
  }
  return total;
}

}  // namespace bits

/// Read-only view of one BitMatrix row.
class ConstBitRow {
 public:
  ConstBitRow(const uint64_t* words, size_t cols, size_t num_words)
      : words_(words), cols_(cols), num_words_(num_words) {}

  size_t size() const { return cols_; }
  const uint64_t* words() const { return words_; }

  bool Test(size_t i) const {
    PROCMINE_DCHECK(i < cols_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  size_t Count() const { return bits::Popcount(words_, num_words_); }

 private:
  const uint64_t* words_;
  size_t cols_;
  size_t num_words_;
};

/// Mutable view of one BitMatrix row.
class BitRow {
 public:
  BitRow(uint64_t* words, size_t cols, size_t num_words)
      : words_(words), cols_(cols), num_words_(num_words) {}

  operator ConstBitRow() const { return {words_, cols_, num_words_}; }

  bool Test(size_t i) const {
    PROCMINE_DCHECK(i < cols_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    PROCMINE_DCHECK(i < cols_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void OrWith(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    bits::Or(words_, other.words(), num_words_);
  }
  void CopyFrom(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    std::copy_n(other.words(), num_words_, words_);
  }
  size_t Count() const { return bits::Popcount(words_, num_words_); }

 private:
  uint64_t* words_;
  size_t cols_;
  size_t num_words_;
};

/// Flat rows x cols bit matrix of packed rows. All bits start zero.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows),
        cols_(cols),
        words_per_row_((cols + 63) / 64),
        words_(rows * words_per_row_, 0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Words per row, (cols + 63) / 64.
  size_t words_per_row() const { return words_per_row_; }

  uint64_t* RowWords(size_t r) {
    PROCMINE_DCHECK(r < rows_);
    return words_.data() + r * words_per_row_;
  }
  const uint64_t* RowWords(size_t r) const {
    PROCMINE_DCHECK(r < rows_);
    return words_.data() + r * words_per_row_;
  }

  BitRow operator[](size_t r) {
    return BitRow(RowWords(r), cols_, words_per_row_);
  }
  ConstBitRow operator[](size_t r) const {
    return ConstBitRow(RowWords(r), cols_, words_per_row_);
  }

  bool Test(size_t r, size_t c) const {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    return (words_[r * words_per_row_ + (c >> 6)] >> (c & 63)) & 1;
  }
  void Set(size_t r, size_t c) {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    words_[r * words_per_row_ + (c >> 6)] |= (uint64_t{1} << (c & 63));
  }
  void Reset(size_t r, size_t c) {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    words_[r * words_per_row_ + (c >> 6)] &= ~(uint64_t{1} << (c & 63));
  }

  /// Zeroes every bit.
  void Clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Total set bits.
  size_t Count() const {
    return bits::Popcount(words_.data(), words_.size());
  }

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace procmine

#endif  // PROCMINE_UTIL_BIT_MATRIX_H_
