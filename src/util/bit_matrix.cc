#include "util/bit_matrix.h"

#include <new>

namespace procmine {

namespace bits {

const char* KernelMode() {
#if PROCMINE_BITS_AVX2
  return "avx2";
#else
  return "scalar-unrolled";
#endif
}

}  // namespace bits

namespace {

size_t PaddedStride(size_t cols) {
  size_t words = (cols + 63) / 64;
  return (words + BitMatrix::kWordsPerLine - 1) &
         ~(BitMatrix::kWordsPerLine - 1);
}

}  // namespace

void BitMatrix::AllocateZeroed() {
  words_per_row_ = (cols_ + 63) / 64;
  stride_ = PaddedStride(cols_);
  size_t total_words = rows_ * stride_;
  if (total_words == 0) {
    data_ = nullptr;
    return;
  }
  data_ = static_cast<uint64_t*>(
      ::operator new(total_words * 8, std::align_val_t{kAlignment}));
  bits::Clear(data_, total_words);
}

void BitMatrix::ReleaseStorage() {
  if (data_ != nullptr) {
    ::operator delete(data_, std::align_val_t{kAlignment});
  }
  data_ = nullptr;
}

BitMatrix::BitMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {
  AllocateZeroed();
}

BitMatrix::BitMatrix(const BitMatrix& other)
    : rows_(other.rows_), cols_(other.cols_) {
  AllocateZeroed();
  if (data_ != nullptr) bits::Copy(data_, other.data_, rows_ * stride_);
}

BitMatrix::BitMatrix(BitMatrix&& other) noexcept
    : data_(other.data_),
      rows_(other.rows_),
      cols_(other.cols_),
      words_per_row_(other.words_per_row_),
      stride_(other.stride_) {
  other.data_ = nullptr;
  other.rows_ = other.cols_ = other.words_per_row_ = other.stride_ = 0;
}

BitMatrix& BitMatrix::operator=(const BitMatrix& other) {
  if (this == &other) return *this;
  BitMatrix copy(other);
  *this = std::move(copy);
  return *this;
}

BitMatrix& BitMatrix::operator=(BitMatrix&& other) noexcept {
  if (this == &other) return *this;
  ReleaseStorage();
  data_ = other.data_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  words_per_row_ = other.words_per_row_;
  stride_ = other.stride_;
  other.data_ = nullptr;
  other.rows_ = other.cols_ = other.words_per_row_ = other.stride_ = 0;
  return *this;
}

BitMatrix::~BitMatrix() { ReleaseStorage(); }

void BitMatrix::Clear() {
  if (data_ != nullptr) bits::Clear(data_, rows_ * stride_);
}

void BitMatrix::OrWith(const BitMatrix& other) {
  PROCMINE_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  if (data_ != nullptr) bits::Or(data_, other.data_, rows_ * stride_);
}

void BitMatrix::AndNotWith(const BitMatrix& other) {
  PROCMINE_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  if (data_ != nullptr) bits::AndNot(data_, other.data_, rows_ * stride_);
}

size_t BitMatrix::Count() const {
  if (data_ == nullptr) return 0;
  return bits::Popcount(data_, rows_ * stride_);
}

bool operator==(const BitMatrix& a, const BitMatrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
  if (a.data_ == nullptr || b.data_ == nullptr) {
    return a.data_ == b.data_;
  }
  return bits::Equal(a.data_, b.data_, a.rows_ * a.stride_);
}

}  // namespace procmine
