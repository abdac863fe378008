// Shared helpers for the table-regeneration harnesses.

#ifndef PROCMINE_BENCH_BENCH_COMMON_H_
#define PROCMINE_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "log/event_log.h"
#include "obs/trace.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/strings.h"

namespace procmine::bench {

/// The Section 8.1 synthetic workload for one (vertices, executions) cell:
/// a random DAG at the paper-calibrated density plus a walker log.
struct SyntheticWorkload {
  ProcessGraph truth;
  EventLog log;
};

inline SyntheticWorkload MakeSyntheticWorkload(int32_t vertices,
                                               size_t executions,
                                               uint64_t seed) {
  RandomDagOptions dag_options;
  dag_options.num_activities = vertices;
  dag_options.edge_density = PaperEdgeDensity(vertices);
  dag_options.seed = seed;
  SyntheticWorkload w{GenerateRandomDag(dag_options), EventLog()};
  WalkLogOptions log_options;
  log_options.num_executions = executions;
  log_options.seed = seed * 7919 + 13;
  auto log = GenerateWalkLog(w.truth, log_options);
  PROCMINE_CHECK_OK(log.status());
  w.log = std::move(log).ValueOrDie();
  return w;
}

/// The median of `values` (the mean of the middle two for an even count).
inline double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? values[n / 2]
                              : (values[n / 2 - 1] + values[n / 2]) / 2.0);
}

/// Whether to run the abbreviated sweep (PROCMINE_BENCH_QUICK=1): used to
/// keep CI fast; the full sweep reproduces the paper's axes.
inline bool QuickMode() {
  const char* env = std::getenv("PROCMINE_BENCH_QUICK");
  return env != nullptr && std::string(env) == "1";
}

/// Worker threads for the harnesses (PROCMINE_BENCH_THREADS=N; default 1 so
/// the recorded tables stay comparable to the sequential baseline; 0 = all
/// hardware threads).
inline int BenchThreads() {
  const char* env = std::getenv("PROCMINE_BENCH_THREADS");
  return env == nullptr ? 1 : std::atoi(env);
}

/// Whether to record per-phase span breakdowns into the BENCH_*.json outputs
/// (PROCMINE_BENCH_PHASES=1). Off by default so the headline timings measure
/// the uninstrumented pipeline.
inline bool PhaseMode() {
  const char* env = std::getenv("PROCMINE_BENCH_PHASES");
  return env != nullptr && std::string(env) == "1";
}

/// Enables span recording and clears previously recorded spans; call before
/// the measured region when PhaseMode() is on.
inline void ResetPhaseSpans() {
  obs::SetTracingEnabled(true);
  obs::TraceRecorder::Get().Reset();
}

/// The spans recorded since ResetPhaseSpans(), aggregated per name, as a
/// JSON object fragment: {"edges.collect": {"count": 2, "ms": 1.5}, ...}.
inline std::string PhaseTotalsJson() {
  std::string out = "{";
  bool first = true;
  for (const obs::SpanStats& s : obs::TraceRecorder::Get().Stats()) {
    out += StrFormat("%s\"%s\": {\"count\": %lld, \"ms\": %.3f}",
                     first ? "" : ", ", s.name.c_str(),
                     static_cast<long long>(s.count),
                     static_cast<double>(s.total_ns) / 1e6);
    first = false;
  }
  out += "}";
  return out;
}

}  // namespace procmine::bench

#endif  // PROCMINE_BENCH_BENCH_COMMON_H_
