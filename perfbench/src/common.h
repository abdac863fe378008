// Shared plumbing of the end-to-end benchmark: run configuration, the
// result record every workload fills, timing statistics, span self-time
// attribution, peak-RSS probing, and forked set-up steps.
//
// Every workload runs in one process and reports one Outcome. With
// tracing off the Outcome carries the end-to-end metrics; with tracing on
// it carries the per-layer metrics and a human-readable layer table.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/strings.h"

namespace perfbench {

using procmine::StrFormat;

/// Seed of every workload's process graph. The graph is part of the
/// workload's definition; --seed draws the executions over it. Letting
/// --seed redraw the graph too moves the per-event cost of mining by about
/// a fifth from seed to seed, more than any bound the benchmark sets.
inline constexpr uint64_t kGraphSeed = 1;

/// What one invocation runs.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of one timed phase
  bool trace = false;
  std::string work_dir;   ///< scratch directory owned by this run, relative
                          ///< to the working directory
  bool tiny = false;      ///< test-sized inputs (the self-test pass)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result of one run. `correct` is false when any output check failed;
/// each failed operation is also counted in `failed`.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the JSON result (sizes, sample
  /// counts, the per-layer table).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Records a failed check: the run is incorrect and `ops` operations
  /// count as failed.
  void Fail(const std::string& why, int64_t ops);
};

/// The final result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": v, "unit": u}}}.
std::string ResultJson(const Outcome& outcome);

// ---------------------------------------------------------------------------
// Timing statistics

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile: the smallest sample with at least q of the
/// samples at or below it (q in (0, 1]). Returns 0 for no samples.
double Percentile(std::vector<double> samples, double q);

/// The middle sample (mean of the two middle ones for an even count).
double Median(std::vector<double> samples);

double Mean(const std::vector<double>& samples);

/// A sample stamped with when it completed, in seconds from the start of
/// its timed phase.
struct Stamped {
  double at_s;
  double value;
};

/// Splits [0, wall_s) into `windows` equal windows and returns the values
/// of the samples that completed in each, in window order. A sample at or
/// past wall_s lands in the last window, one before 0 in the first.
std::vector<std::vector<double>> ByWindow(const std::vector<Stamped>& samples,
                                          double wall_s, int windows);

/// The median over windows of each window's median. Windows without
/// samples are skipped; returns 0 when all are empty.
double MedianOfWindowMedians(const std::vector<std::vector<double>>& windows);

// ---------------------------------------------------------------------------
// Span attribution

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans, where a child is a span of the same thread
/// that starts inside the parent. Children that run past their parent's
/// end are clipped to the parent. Returns total self seconds per span name.
std::map<std::string, double> SelfSecondsByName(
    const std::vector<procmine::obs::SpanEvent>& spans);

/// Sums the self seconds of the span names mapped to each layer. Spans
/// whose name has no layer are left out (they land in the unattributed
/// remainder).
std::map<std::string, double> SelfSecondsByLayer(
    const std::map<std::string, double>& self_by_name,
    const std::map<std::string, std::string>& layer_of_span);

// ---------------------------------------------------------------------------
// Process helpers

/// Peak resident set size of this process so far, in MiB (getrusage's
/// ru_maxrss; child processes are not included).
double PeakRssMb();

/// Runs `step` in a forked child so its memory never counts toward this
/// process's peak RSS. Returns the child's wall time in seconds, or a
/// negative value when the child failed. Call only while this process has
/// no other threads.
double RunInChild(const std::function<bool()>& step);

/// Runs a set-up step `times` times and returns the median wall time.
/// `step` receives the attempt index and must leave the same state every
/// time. A failed attempt returns a negative value.
double MedianSetupSeconds(int times, const std::function<double(int)>& step);

/// Removes and re-creates `dir`.
bool ResetDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
