// BitMatrix: a flat, 64-byte-aligned, row-padded bitset matrix, plus the
// word kernels (`bits::` namespace) every hot OR/AND-NOT/popcount loop in
// the mining pipeline now routes through.
//
// Rationale: the closure/reduction algorithms (Algorithm 4 of the paper) are
// whole-row unions over per-vertex descendant sets. The seed represented a
// matrix as one separately allocated bitset per row — one heap allocation
// per row, scattered across the heap, each op a fresh element loop.
// BitMatrix stores all rows in one 64-byte-aligned block with the row
// stride padded to a multiple of 64 bytes, so
//   * row starts are always cache-line- (and AVX-) aligned,
//   * walking rows in order is a linear scan the prefetcher can follow,
//   * whole-matrix ops (merge two shard matrices) are a single flat kernel
//     call over rows*stride words.
//
// The kernels are 8x word-unrolled scalar loops with a compile-time AVX2
// path: building with -DPROCMINE_SIMD=ON (CMake adds -mavx2 and defines
// PROCMINE_SIMD) swaps in 256-bit vector bodies. Both paths are
// bit-identical — tests/bit_matrix_test.cc pits them against the seed's
// one-word-at-a-time bitset (tests/dynamic_bitset.h) on random sizes
// including ragged tail words.
//
// Padding bits (columns >= cols() in the last in-use words and the padding
// words) are kept zero by every mutating member, so whole-row kernels never
// leak phantom bits into Count()/Intersects().

#ifndef PROCMINE_UTIL_BIT_MATRIX_H_
#define PROCMINE_UTIL_BIT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/logging.h"

#if defined(PROCMINE_SIMD) && defined(__AVX2__)
#define PROCMINE_BITS_AVX2 1
#include <immintrin.h>
#endif

namespace procmine {

namespace bits {

/// Name of the compiled kernel dispatch ("avx2" or "scalar-unrolled"); the
/// benches record it so BENCH_kernels.json is self-describing.
const char* KernelMode();

/// dst |= src over `n` words.
inline void Or(uint64_t* __restrict dst, const uint64_t* __restrict src,
               size_t n) {
  size_t i = 0;
#if PROCMINE_BITS_AVX2
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_or_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_or_si256(a1, b1));
  }
#else
  for (; i + 8 <= n; i += 8) {
    dst[i] |= src[i];
    dst[i + 1] |= src[i + 1];
    dst[i + 2] |= src[i + 2];
    dst[i + 3] |= src[i + 3];
    dst[i + 4] |= src[i + 4];
    dst[i + 5] |= src[i + 5];
    dst[i + 6] |= src[i + 6];
    dst[i + 7] |= src[i + 7];
  }
#endif
  for (; i < n; ++i) dst[i] |= src[i];
}

/// dst &= src over `n` words.
inline void And(uint64_t* __restrict dst, const uint64_t* __restrict src,
                size_t n) {
  size_t i = 0;
#if PROCMINE_BITS_AVX2
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_and_si256(a0, b0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_and_si256(a1, b1));
  }
#else
  for (; i + 8 <= n; i += 8) {
    dst[i] &= src[i];
    dst[i + 1] &= src[i + 1];
    dst[i + 2] &= src[i + 2];
    dst[i + 3] &= src[i + 3];
    dst[i + 4] &= src[i + 4];
    dst[i + 5] &= src[i + 5];
    dst[i + 6] &= src[i + 6];
    dst[i + 7] &= src[i + 7];
  }
#endif
  for (; i < n; ++i) dst[i] &= src[i];
}

/// dst &= ~src over `n` words.
inline void AndNot(uint64_t* __restrict dst, const uint64_t* __restrict src,
                   size_t n) {
  size_t i = 0;
#if PROCMINE_BITS_AVX2
  for (; i + 8 <= n; i += 8) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i a1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 4));
    __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 4));
    // _mm256_andnot_si256(b, a) computes (~b) & a.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_andnot_si256(b0, a0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4),
                        _mm256_andnot_si256(b1, a1));
  }
#else
  for (; i + 8 <= n; i += 8) {
    dst[i] &= ~src[i];
    dst[i + 1] &= ~src[i + 1];
    dst[i + 2] &= ~src[i + 2];
    dst[i + 3] &= ~src[i + 3];
    dst[i + 4] &= ~src[i + 4];
    dst[i + 5] &= ~src[i + 5];
    dst[i + 6] &= ~src[i + 6];
    dst[i + 7] &= ~src[i + 7];
  }
#endif
  for (; i < n; ++i) dst[i] &= ~src[i];
}

/// True iff a and b share any set bit in the first `n` words.
inline bool Intersects(const uint64_t* __restrict a,
                       const uint64_t* __restrict b, size_t n) {
  size_t i = 0;
#if PROCMINE_BITS_AVX2
  for (; i + 4 <= n; i += 4) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(x, y)) return true;
  }
#else
  for (; i + 8 <= n; i += 8) {
    uint64_t acc = (a[i] & b[i]) | (a[i + 1] & b[i + 1]) |
                   (a[i + 2] & b[i + 2]) | (a[i + 3] & b[i + 3]) |
                   (a[i + 4] & b[i + 4]) | (a[i + 5] & b[i + 5]) |
                   (a[i + 6] & b[i + 6]) | (a[i + 7] & b[i + 7]);
    if (acc != 0) return true;
  }
#endif
  for (; i < n; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

/// Number of set bits in the first `n` words.
inline size_t Popcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  size_t i = 0;
  // popcnt has a 3-cycle latency on most cores; four accumulators keep the
  // chain from serializing. (AVX2 has no vector popcount; scalar popcnt at
  // 1/cycle already saturates the load ports here.)
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<size_t>(__builtin_popcountll(w[i]));
    c1 += static_cast<size_t>(__builtin_popcountll(w[i + 1]));
    c2 += static_cast<size_t>(__builtin_popcountll(w[i + 2]));
    c3 += static_cast<size_t>(__builtin_popcountll(w[i + 3]));
  }
  total = c0 + c1 + c2 + c3;
  for (; i < n; ++i) total += static_cast<size_t>(__builtin_popcountll(w[i]));
  return total;
}

/// True iff any bit is set in the first `n` words.
inline bool Any(const uint64_t* w, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t acc = w[i] | w[i + 1] | w[i + 2] | w[i + 3] | w[i + 4] |
                   w[i + 5] | w[i + 6] | w[i + 7];
    if (acc != 0) return true;
  }
  for (; i < n; ++i) {
    if (w[i] != 0) return true;
  }
  return false;
}

inline void Clear(uint64_t* w, size_t n) { std::memset(w, 0, n * 8); }

inline void Copy(uint64_t* __restrict dst, const uint64_t* __restrict src,
                 size_t n) {
  std::memcpy(dst, src, n * 8);
}

inline bool Equal(const uint64_t* a, const uint64_t* b, size_t n) {
  return std::memcmp(a, b, n * 8) == 0;
}

}  // namespace bits

/// Read-only view of one BitMatrix row: Test / Count / Any / Intersects
/// over the row's words.
class ConstBitRow {
 public:
  ConstBitRow(const uint64_t* words, size_t cols, size_t num_words)
      : words_(words), cols_(cols), num_words_(num_words) {}

  size_t size() const { return cols_; }
  const uint64_t* words() const { return words_; }
  size_t num_words() const { return num_words_; }

  bool Test(size_t i) const {
    PROCMINE_DCHECK(i < cols_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  size_t Count() const { return bits::Popcount(words_, num_words_); }
  bool Any() const { return bits::Any(words_, num_words_); }
  bool None() const { return !Any(); }
  bool Intersects(ConstBitRow other) const {
    PROCMINE_DCHECK(cols_ == other.cols_);
    return bits::Intersects(words_, other.words_, num_words_);
  }
  friend bool operator==(ConstBitRow a, ConstBitRow b) {
    return a.cols_ == b.cols_ && bits::Equal(a.words_, b.words_, a.num_words_);
  }

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

  size_t size() const { return cols_; }
  uint64_t* words() const { return words_; }
  size_t num_words() const { return num_words_; }

  bool Test(size_t i) const {
    PROCMINE_DCHECK(i < cols_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void Set(size_t i) {
    PROCMINE_DCHECK(i < cols_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void Reset(size_t i) {
    PROCMINE_DCHECK(i < cols_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Clear() { bits::Clear(words_, num_words_); }
  void OrWith(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    bits::Or(words_, other.words(), num_words_);
  }
  void AndWith(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    bits::And(words_, other.words(), num_words_);
  }
  void AndNotWith(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    bits::AndNot(words_, other.words(), num_words_);
  }
  void CopyFrom(ConstBitRow other) {
    PROCMINE_DCHECK(cols_ == other.size());
    bits::Copy(words_, other.words(), num_words_);
  }
  size_t Count() const { return bits::Popcount(words_, num_words_); }
  bool Any() const { return bits::Any(words_, num_words_); }
  bool None() const { return !Any(); }
  bool Intersects(ConstBitRow other) const {
    PROCMINE_DCHECK(cols_ == other.size());
    return bits::Intersects(words_, other.words(), num_words_);
  }

 private:
  uint64_t* words_;
  size_t cols_;
  size_t num_words_;
};

/// Flat rows x cols bit matrix. Rows are padded to a multiple of 64 bytes so
/// each row starts cache-line aligned; the whole block is one 64-byte-aligned
/// allocation. All bits start zero.
class BitMatrix {
 public:
  static constexpr size_t kAlignment = 64;
  /// Words per 64-byte cache line; the row stride is a multiple of this.
  static constexpr size_t kWordsPerLine = kAlignment / sizeof(uint64_t);

  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols);
  BitMatrix(const BitMatrix& other);
  BitMatrix(BitMatrix&& other) noexcept;
  BitMatrix& operator=(const BitMatrix& other);
  BitMatrix& operator=(BitMatrix&& other) noexcept;
  ~BitMatrix();

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// In-use words per row ((cols + 63) / 64), excluding padding.
  size_t words_per_row() const { return words_per_row_; }
  /// Allocated words per row, a multiple of kWordsPerLine.
  size_t row_stride() const { return stride_; }

  uint64_t* RowWords(size_t r) {
    PROCMINE_DCHECK(r < rows_);
    return data_ + r * stride_;
  }
  const uint64_t* RowWords(size_t r) const {
    PROCMINE_DCHECK(r < rows_);
    return data_ + r * stride_;
  }

  BitRow operator[](size_t r) {
    return BitRow(RowWords(r), cols_, words_per_row_);
  }
  ConstBitRow operator[](size_t r) const {
    return ConstBitRow(RowWords(r), cols_, words_per_row_);
  }
  BitRow Row(size_t r) { return (*this)[r]; }
  ConstBitRow Row(size_t r) const { return (*this)[r]; }

  bool Test(size_t r, size_t c) const {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    return (data_[r * stride_ + (c >> 6)] >> (c & 63)) & 1;
  }
  void Set(size_t r, size_t c) {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    data_[r * stride_ + (c >> 6)] |= (uint64_t{1} << (c & 63));
  }
  void Reset(size_t r, size_t c) {
    PROCMINE_DCHECK(r < rows_ && c < cols_);
    data_[r * stride_ + (c >> 6)] &= ~(uint64_t{1} << (c & 63));
  }

  /// Zeroes every bit (padding included) with one flat memset.
  void Clear();

  /// this |= other, elementwise, as ONE flat kernel call over the whole
  /// block (padding rows included — both are zero there). The shard-merge
  /// primitive: merging two accumulator matrices never loops per row.
  void OrWith(const BitMatrix& other);
  /// this &= ~other over the whole block.
  void AndNotWith(const BitMatrix& other);

  /// Total set bits.
  size_t Count() const;

  friend bool operator==(const BitMatrix& a, const BitMatrix& b);

 private:
  void AllocateZeroed();
  void ReleaseStorage();

  uint64_t* data_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_row_ = 0;
  size_t stride_ = 0;
};

}  // namespace procmine

#endif  // PROCMINE_UTIL_BIT_MATRIX_H_
