// Arena: a bump allocator for per-execution scratch.
//
// The general-DAG reduce path runs a transitive reduction per execution;
// the seed built a DirectedGraph (n adjacency vectors), a vector of
// per-vertex bitsets, and assorted temporaries for every one of them — dozens
// of small heap allocations per execution, all dead microseconds later.
// An Arena turns that churn into pointer bumps: allocate freely while
// processing one execution, then Reset() rewinds the arena to empty while
// keeping every block for the next execution. Steady state performs zero
// heap traffic.
//
// Allocations are trivially destructible by contract (AllocateArray
// enforces it statically); Reset() never runs destructors.

#ifndef PROCMINE_UTIL_ARENA_H_
#define PROCMINE_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace procmine {

class Arena {
 public:
  /// Every block is at least `min_block_bytes` (rounded up for oversized
  /// requests) and 64-byte aligned, so cache-line-aligned requests never
  /// waste more than the in-block padding.
  static constexpr size_t kDefaultBlockBytes = size_t{1} << 16;  // 64 KiB
  static constexpr size_t kBlockAlignment = 64;

  explicit Arena(size_t min_block_bytes = kDefaultBlockBytes);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `align` (a power of
  /// two, at most kBlockAlignment). Never fails except by std::bad_alloc.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t));

  /// Typed array of `n` elements, default-uninitialized. T must be trivially
  /// destructible: Reset() will not run destructors.
  template <typename T>
  T* AllocateArray(size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    static_assert(alignof(T) <= kBlockAlignment);
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty, KEEPING all blocks for reuse. O(1): no frees, no
  /// destructor runs. Everything previously allocated is invalidated.
  void Reset();

  /// Bytes handed out since construction / the last Reset().
  size_t bytes_in_use() const { return bytes_in_use_; }
  /// Total block capacity held (survives Reset()).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    uint64_t* data;  // 64-byte aligned
    size_t capacity;
  };

  /// Makes blocks_[current_] able to hold `bytes`, appending a new block
  /// (doubling sizes) if the existing ones are exhausted.
  void NextBlock(size_t bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // index of the block being bumped
  size_t offset_ = 0;   // bytes used in blocks_[current_]
  size_t min_block_bytes_;
  size_t bytes_in_use_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace procmine

#endif  // PROCMINE_UTIL_ARENA_H_
