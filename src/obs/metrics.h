// Metrics registry: named counters, gauges, and fixed-bucket histograms for
// the mining pipeline.
//
// The hot path mirrors the shard-then-merge discipline of the parallel
// miners: every metric keeps one cache-line-padded atomic cell per thread
// shard, writers touch only their own shard with relaxed atomics (lock-free,
// no cross-thread cache-line ping-pong), and totals are merged
// deterministically at snapshot time (integer sums and per-bucket sums are
// order-independent, so the snapshot is identical for any thread count).
//
// The registry is off by default. When disabled, Add/Set/Record reduce to a
// single relaxed atomic load and a predictable branch, so instrumentation
// left in the hot paths costs nothing measurable. Handles returned by
// MetricsRegistry are registered once under a mutex (cold path) and remain
// valid for the process lifetime; instrumentation sites cache them in
// function-local statics:
//
//   static obs::Counter* edges = obs::MetricsRegistry::Get().GetCounter(
//       "mine.edges_collected");
//   edges->Add(merged.size());

#ifndef PROCMINE_OBS_METRICS_H_
#define PROCMINE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.h"

namespace procmine::obs {

namespace internal {
extern std::atomic<bool> g_metrics_enabled;
}  // namespace internal

/// Turns metric recording on or off process-wide (default: off).
void SetMetricsEnabled(bool enabled);

inline bool MetricsEnabled() {
  return internal::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Number of per-thread shards per metric (power of two). Threads map to
/// shards by their dense CurrentThreadId(), so the first kMetricShards
/// threads never share a cell.
inline constexpr size_t kMetricShards = 16;

namespace internal {
struct alignas(64) ShardCell {
  std::atomic<int64_t> value{0};
};

inline size_t ShardIndex() {
  return static_cast<size_t>(CurrentThreadId()) & (kMetricShards - 1);
}
}  // namespace internal

/// Monotonically increasing sum, sharded per thread.
class Counter {
 public:
  void Add(int64_t n) {
    if (!MetricsEnabled()) return;
    cells_[internal::ShardIndex()].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Deterministic merge: the sum over all shards.
  int64_t Total() const;
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  std::string name_;
  internal::ShardCell cells_[kMetricShards];
};

/// Last-written value (one cell; gauges record states, not rates).
class Gauge {
 public:
  void Set(int64_t v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds of the first
/// buckets; one implicit overflow bucket catches everything above the last
/// bound. Bucket counts and the value sum are sharded like counters.
class Histogram {
 public:
  void Record(int64_t value);

  /// Per-bucket totals, size bounds().size() + 1 (last = overflow).
  std::vector<int64_t> BucketCounts() const;
  int64_t TotalCount() const;
  int64_t Sum() const;
  const std::vector<int64_t>& bounds() const { return bounds_; }
  void Reset();
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::vector<int64_t> bounds);

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<int64_t>[]> buckets;
    std::atomic<int64_t> sum{0};
  };

  std::string name_;
  std::vector<int64_t> bounds_;  // sorted, strictly increasing
  Shard shards_[kMetricShards];
};

/// Point-in-time copy of every registered metric, ordered by name so the
/// serialization is deterministic.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    int64_t value;
  };
  struct GaugeValue {
    std::string name;
    int64_t value;
  };
  struct HistogramValue {
    std::string name;
    std::vector<int64_t> bounds;
    std::vector<int64_t> counts;  // bounds.size() + 1 entries
    int64_t total_count;
    int64_t sum;

    /// Estimated q-quantile (q in [0, 1]) by linear interpolation inside the
    /// owning bucket; bucket 0's lower edge is 0 and the overflow bucket
    /// clamps to the last bound. Deterministic: derived only from the merged
    /// bucket counts. Returns 0 for an empty histogram.
    double Percentile(double q) const;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Finds a counter total by name; 0 if absent.
  int64_t CounterTotal(std::string_view name) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
  /// Aligned "name value" lines for terminals.
  std::string ToText() const;
};

/// Metric names whose values legitimately depend on the shard layout or on
/// wall-clock timing: latency histograms are nondeterministic by nature.
/// Both deterministic artifacts (run reports, compared byte-for-byte across
/// --threads values) and telemetry delta streams consult this one list, so
/// the two surfaces cannot drift apart.
inline constexpr std::string_view kShardDependentMetrics[] = {
    "segment.decode_us",
};

/// True when `name` is in kShardDependentMetrics.
inline bool ShardDependentMetric(std::string_view name) {
  for (std::string_view metric : kShardDependentMetrics) {
    if (name == metric) return true;
  }
  return false;
}

/// Process-wide registry. Registration is idempotent: the same name always
/// returns the same handle.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` must be sorted and strictly increasing; on a name collision the
  /// existing histogram wins (its bounds are kept).
  Histogram* GetHistogram(std::string_view name, std::vector<int64_t> bounds);

  MetricsSnapshot Snapshot() const;
  /// Zeroes every registered metric (handles stay valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace procmine::obs

#endif  // PROCMINE_OBS_METRICS_H_
