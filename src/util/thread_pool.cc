#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/logging.h"

namespace procmine {

int ThreadPool::HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ResolveThreadCount(int requested) {
  return requested <= 0 ? ThreadPool::HardwareConcurrency() : requested;
}

std::unique_ptr<ThreadPool> PoolForInput(int requested, size_t items) {
  const int threads = ResolveThreadCount(requested);
  if (threads <= 1 || items < ThreadPool::kSmallInputInlineThreshold) {
    return nullptr;
  }
  return std::make_unique<ThreadPool>(threads);
}

size_t PlanChunks(size_t total, int threads, size_t chunk_size) {
  if (total == 0) return 1;
  size_t workers = static_cast<size_t>(std::max(1, threads));
  size_t per_chunk = chunk_size;
  if (per_chunk == 0) {
    // Default: 4 chunks per worker. ceil so tiny inputs round to one chunk.
    per_chunk = (total + workers * 4 - 1) / (workers * 4);
  }
  per_chunk = std::max<size_t>(1, per_chunk);
  return std::min(total, (total + per_chunk - 1) / per_chunk);
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, ResolveThreadCount(num_threads))) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> body) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Task{std::move(body)});
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task.body();
  }
}

void ThreadPool::ParallelFor(size_t total, const ShardFn& fn) {
  const size_t shards = static_cast<size_t>(num_threads_);
  if (shards <= 1 || total <= 1) {
    if (total > 0) fn(0, 0, total);
    return;
  }

  // Completion state shared with the workers. Everything lives on this
  // stack frame; the final wait below guarantees no worker touches it after
  // ParallelFor returns.
  struct Completion {
    std::mutex mu;
    std::condition_variable done;
    size_t pending = 0;
    // First exception by shard index, so rethrow order is deterministic.
    size_t error_shard = 0;
    std::exception_ptr error;
  } state;
  state.pending = 0;

  auto run_shard = [&fn, &state](size_t shard, size_t begin, size_t end) {
    std::exception_ptr error;
    try {
      if (begin < end) fn(shard, begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(state.mu);
    if (error && (!state.error || shard < state.error_shard)) {
      state.error = error;
      state.error_shard = shard;
    }
    if (--state.pending == 0) state.done.notify_one();
  };

  // Contiguous shard s covers [total*s/shards, total*(s+1)/shards).
  auto bound = [total, shards](size_t s) { return total * s / shards; };
  size_t submitted = 0;
  for (size_t s = 1; s < shards; ++s) {
    if (bound(s) >= bound(s + 1)) continue;  // empty shard
    ++submitted;
  }
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.pending = submitted + 1;  // + the caller's shard 0
  }
  for (size_t s = 1; s < shards; ++s) {
    size_t begin = bound(s), end = bound(s + 1);
    if (begin >= end) continue;
    Submit([&run_shard, s, begin, end] { run_shard(s, begin, end); });
  }
  // The caller works shard 0 instead of idling.
  run_shard(0, 0, bound(1));

  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&state] { return state.pending == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

void ThreadPool::ParallelForChunked(size_t num_chunks, const ChunkFn& fn) {
  if (num_chunks == 0) return;
  // Tiny inputs or a size-1 pool: run inline. Same chunk visit order as the
  // sequential reference, so this branch is trivially byte-identical.
  if (num_threads_ <= 1 || num_chunks <= 1) {
    for (size_t c = 0; c < num_chunks; ++c) fn(c);
    return;
  }

  // All shared state lives on this frame; the final wait guarantees no
  // worker touches it after ParallelForChunked returns.
  struct Completion {
    std::atomic<size_t> next_chunk{0};  // the work-stealing counter
    std::mutex mu;
    std::condition_variable done;
    size_t pending = 0;
    size_t error_chunk = 0;
    std::exception_ptr error;
  } state;

  // Each participant drains chunks until the counter runs out. A worker
  // that hits an exception stops claiming chunks but the others drain the
  // remainder, so `pending` always reaches zero.
  auto drain = [&fn, &state, num_chunks] {
    std::exception_ptr error;
    size_t error_chunk = 0;
    for (;;) {
      size_t c = state.next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      try {
        fn(c);
      } catch (...) {
        error = std::current_exception();
        error_chunk = c;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(state.mu);
    if (error && (!state.error || error_chunk < state.error_chunk)) {
      state.error = error;
      state.error_chunk = error_chunk;
    }
    if (--state.pending == 0) state.done.notify_one();
  };

  // No point waking more workers than there are chunks.
  size_t participants =
      std::min(static_cast<size_t>(num_threads_), num_chunks);
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.pending = participants;
  }
  for (size_t i = 1; i < participants; ++i) {
    Submit([&drain] { drain(); });
  }
  drain();  // the caller steals chunks too instead of idling

  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&state] { return state.pending == 0; });
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace procmine
