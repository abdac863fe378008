// ThreadPool: a small fixed-size worker pool for the sharded mining paths.
//
// The mining algorithms are all "map over executions, reduce with an
// order-independent merge" (bitset OR, counter sum, set union), so the only
// primitive needed is a chunked ParallelFor over an index range. The pool is
// deliberately minimal:
//
//  * A pool of size 1 spawns no threads at all and runs everything inline —
//    that path is byte-for-byte the sequential reference implementation.
//  * ParallelFor splits [0, total) into num_threads() contiguous shards and
//    hands each shard to fn(shard, begin, end). The calling thread executes
//    the first shard itself.
//  * ParallelForChunked is the work-stealing mode: the caller supplies a
//    chunk count (usually several per thread, see PlanChunks) and idle
//    workers claim the next chunk off a shared atomic counter, so an
//    unlucky expensive chunk no longer strands the rest of the pool behind
//    one fixed shard. Determinism is preserved by construction: the chunk
//    boundaries are a pure function of (total, num_chunks) and callers
//    keep one result slot per chunk, merged in chunk-index order — which
//    worker ran a chunk never reaches the output.
//  * Exceptions thrown by any shard are captured and the first one (by shard
//    index) is rethrown on the calling thread after all shards finished, so
//    a throwing shard can never leak a detached worker.

#ifndef PROCMINE_UTIL_THREAD_POOL_H_
#define PROCMINE_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace procmine {

/// Fixed worker pool with a chunked, exception-safe ParallelFor.
class ThreadPool {
 public:
  /// Shard body: fn(shard_index, begin, end) processes items [begin, end).
  using ShardFn = std::function<void(size_t shard, size_t begin, size_t end)>;

  /// Creates a pool of `num_threads` workers (clamped to >= 1). A pool of
  /// size 1 spawns no threads; `num_threads <= 0` means hardware concurrency.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency(), never less than 1.
  static int HardwareConcurrency();

  /// Runs fn over [0, total) split into num_threads() contiguous shards.
  /// Blocks until every shard finished; rethrows the lowest-shard-index
  /// exception if any shard threw. Empty shards are not invoked.
  void ParallelFor(size_t total, const ShardFn& fn);

  /// Work-stealing variant: runs fn(chunk) exactly once for every chunk in
  /// [0, num_chunks), chunks claimed dynamically by idle workers (and the
  /// calling thread) off an atomic counter. Blocks until all chunks
  /// finished; rethrows the lowest-chunk-index exception if any threw.
  /// Which worker runs a chunk is unspecified — callers must keep
  /// per-chunk result slots and merge them in chunk order.
  using ChunkFn = std::function<void(size_t chunk)>;
  void ParallelForChunked(size_t num_chunks, const ChunkFn& fn);

  /// Below this many items a parallel pass costs more in pool traffic than
  /// it saves; PoolForInput builds no pool for such inputs.
  static constexpr size_t kSmallInputInlineThreshold = 32;

 private:
  struct Task {
    std::function<void()> body;
  };

  void WorkerLoop();
  void Submit(std::function<void()> body);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_available_;
  std::vector<Task> queue_;
  bool shutting_down_ = false;
};

/// Maps a user-facing thread-count knob to an effective pool size:
/// `requested <= 0` selects hardware concurrency, anything else is taken
/// as-is (values above the hardware count are allowed; useful for tests).
int ResolveThreadCount(int requested);

/// The pool for a pass over `items` items under the `requested` thread
/// knob (see ResolveThreadCount), or null when that resolves to one thread
/// or `items` is below ThreadPool::kSmallInputInlineThreshold: there the
/// inline sequential path is cheaper, and byte-identical.
std::unique_ptr<ThreadPool> PoolForInput(int requested, size_t items);

/// Number of chunks for a work-stealing pass over `total` items.
/// `chunk_size` is the per-chunk item count knob: 0 selects the default of
/// 4 chunks per thread (enough slack for stealing to rebalance, few enough
/// that per-chunk accumulators stay cheap to merge); any other value is
/// honored as-is. The result is always in [1, total] (1 when total == 0) —
/// and, crucially, independent of which threads exist, so the chunk
/// partition that reaches the merge step is deterministic.
size_t PlanChunks(size_t total, int threads, size_t chunk_size);

}  // namespace procmine

#endif  // PROCMINE_UTIL_THREAD_POOL_H_
