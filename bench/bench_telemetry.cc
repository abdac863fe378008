// Telemetry overhead harness. Two halves:
//
//  1. Steady-state cost gates, measured directly because they are what the
//     "<2% at 250ms, ~zero disabled" claim is actually about:
//       * the sampler's cost per tick (collect + serialize + emit all three
//         artifacts), median over many ticks, expressed as a fraction of
//         the 250ms interval — the overhead a long run pays at steady
//         state. Gated at 2%.
//       * the per-operation cost of a disabled counter increment — the
//         only instrumentation cost a run without telemetry flags pays.
//       * the per-operation cost of an enabled counter increment.
//  2. An end-to-end differential table (mining with the sampler off / on at
//     250ms / on at 25ms), reported for context but not gated: differencing
//     sub-second timings cannot resolve a sub-2% effect on a shared
//     machine, where scheduler and frequency jitter alone is several
//     percent.
//
// Output: a table to stdout and BENCH_telemetry.json next to the binary.

#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "util/timer.h"

using namespace procmine;
using namespace procmine::bench;

namespace {

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

struct RoundTimes {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  ///< all threads, sampler included
};

/// One timed round: `iters` consecutive mines, so the measured region is
/// long enough (tens of milliseconds at least) to ride out scheduler noise.
/// The overhead gate compares CPU time — it charges the sampler thread's
/// work to the run but is immune to host scheduler jitter, which dwarfs a
/// sub-percent effect in wall-clock on shared machines.
RoundTimes MineRound(const SyntheticWorkload& w, int threads, int iters) {
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.num_threads = threads;
  const double cpu_before = ProcessCpuSeconds();
  StopWatch watch;
  for (int i = 0; i < iters; ++i) {
    auto mined = ProcessMiner(options).Mine(w.log);
    PROCMINE_CHECK_OK(mined.status());
  }
  RoundTimes times;
  times.wall_seconds = watch.ElapsedSeconds();
  times.cpu_seconds = ProcessCpuSeconds() - cpu_before;
  return times;
}

struct Config {
  std::string name;
  bool metrics = false;
  int64_t sampler_interval_ms = 0;  ///< 0 = no sampler
  std::vector<double> wall_rounds;
  std::vector<double> cpu_rounds;
};

}  // namespace

struct SteadyState {
  double sample_cost_ms = 0.0;        ///< median cost of one full tick
  double overhead_at_250ms_pct = 0.0; ///< sample cost / 250ms
  double disabled_add_ns = 0.0;       ///< counter Add, metrics off
  double enabled_add_ns = 0.0;        ///< counter Add, metrics on
};

SteadyState MeasureSteadyState(const std::string& tmp_dir, int ticks) {
  SteadyState steady;

  // Per-tick cost: a sampler with all three artifacts enabled, sampled
  // synchronously so each tick's duration is measured exactly.
  obs::SetMetricsEnabled(true);
  {
    obs::TelemetryOptions topt;
    topt.interval_ms = 250;
    topt.jsonl_path = tmp_dir + "/steady.jsonl";
    topt.openmetrics_path = tmp_dir + "/steady.om";
    topt.status_path = tmp_dir + "/steady.status";
    topt.command = "bench";
    topt.source = "synthetic";
    obs::TelemetrySampler sampler(topt);
    PROCMINE_CHECK_OK(sampler.Start());
    std::vector<double> tick_ms;
    for (int i = 0; i < ticks; ++i) {
      obs::MetricsRegistry::Get()
          .GetCounter("bench.telemetry_ticks")
          ->Increment();
      StopWatch watch;
      sampler.SampleOnce();
      tick_ms.push_back(watch.ElapsedSeconds() * 1e3);
    }
    PROCMINE_CHECK_OK(sampler.Stop());
    steady.sample_cost_ms = Median(tick_ms);
    steady.overhead_at_250ms_pct = steady.sample_cost_ms / 250.0 * 100.0;
  }

  // Instrumentation-site cost, disabled and enabled. Batched so the timer
  // granularity is irrelevant; median of batches.
  auto add_ns = [](int64_t ops_per_batch, int batches) {
    obs::Counter* c =
        obs::MetricsRegistry::Get().GetCounter("bench.telemetry_adds");
    std::vector<double> ns;
    for (int b = 0; b < batches; ++b) {
      StopWatch watch;
      for (int64_t i = 0; i < ops_per_batch; ++i) c->Increment();
      ns.push_back(static_cast<double>(watch.ElapsedNanos()) /
                   static_cast<double>(ops_per_batch));
    }
    return Median(ns);
  };
  obs::SetMetricsEnabled(false);
  steady.disabled_add_ns = add_ns(1000000, 9);
  obs::SetMetricsEnabled(true);
  steady.enabled_add_ns = add_ns(1000000, 9);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Get().ResetAll();
  return steady;
}

int main() {
  const size_t executions = QuickMode() ? 5000 : 30000;
  const int rounds = QuickMode() ? 7 : 7;
  // Full mode measures ~1s rounds: every configuration pays the sampler's
  // unconditional start/stop samples, so short rounds would over-weight
  // that fixed cost relative to the steady state long runs actually see.
  const int iters = QuickMode() ? 5 : 15;
  const int threads = BenchThreads();
  SyntheticWorkload w = MakeSyntheticWorkload(/*vertices=*/25, executions,
                                              /*seed=*/1025);
  MineRound(w, threads, 1);  // warm-up: page in the log, prime allocators

  const std::string tmp_dir =
      "bench_telemetry_tmp_" + std::to_string(getpid());
  std::string mkdir = "mkdir -p " + tmp_dir;
  if (std::system(mkdir.c_str()) != 0) return 1;

  const SteadyState steady =
      MeasureSteadyState(tmp_dir, /*ticks=*/QuickMode() ? 40 : 200);

  std::vector<Config> configs = {
      {"telemetry_off", false, 0, {}, {}},
      {"metrics_no_sampler", true, 0, {}, {}},
      {"sampler_250ms", true, 250, {}, {}},
      {"sampler_25ms", true, 25, {}, {}},
  };

  // Alternate configurations within each round so slow moments of the
  // machine hit all of them equally; keep each configuration's best round.
  for (int round = 0; round < rounds; ++round) {
    for (Config& config : configs) {
      obs::SetMetricsEnabled(config.metrics);
      obs::MetricsRegistry::Get().ResetAll();
      obs::TelemetrySampler* sampler = nullptr;
      if (config.sampler_interval_ms > 0) {
        obs::TelemetryOptions topt;
        topt.interval_ms = config.sampler_interval_ms;
        topt.jsonl_path = tmp_dir + "/" + config.name + ".jsonl";
        topt.openmetrics_path = tmp_dir + "/" + config.name + ".om";
        topt.status_path = tmp_dir + "/" + config.name + ".status";
        topt.command = "bench";
        topt.source = "synthetic";
        sampler = new obs::TelemetrySampler(topt);
        PROCMINE_CHECK_OK(sampler->Start());
      }
      RoundTimes times = MineRound(w, threads, iters);
      if (sampler != nullptr) {
        PROCMINE_CHECK_OK(sampler->Stop());
        delete sampler;
      }
      config.wall_rounds.push_back(times.wall_seconds);
      config.cpu_rounds.push_back(times.cpu_seconds);
    }
  }
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Get().ResetAll();
  std::string cleanup = "rm -rf " + tmp_dir;
  if (std::system(cleanup.c_str()) != 0) return 1;

  // Paired per-round ratios: every round measures all configurations within
  // a few seconds of each other, so dividing by that round's baseline
  // cancels machine-speed drift on any slower timescale. The median ratio
  // then shrugs off individual spiked rounds.
  auto overhead_pct = [&configs](const Config& c) {
    std::vector<double> ratios;
    for (size_t i = 0;
         i < c.cpu_rounds.size() && i < configs[0].cpu_rounds.size(); ++i) {
      if (configs[0].cpu_rounds[i] > 0) {
        ratios.push_back(c.cpu_rounds[i] / configs[0].cpu_rounds[i]);
      }
    }
    return (Median(ratios) - 1.0) * 100.0;
  };

  std::printf("steady-state costs\n");
  std::printf("  sampler tick (3 artifacts):  %.3f ms -> %.2f%% of the 250ms "
              "interval\n",
              steady.sample_cost_ms, steady.overhead_at_250ms_pct);
  std::printf("  counter add, metrics off:    %.2f ns/op\n",
              steady.disabled_add_ns);
  std::printf("  counter add, metrics on:     %.2f ns/op\n",
              steady.enabled_add_ns);
  std::printf("end-to-end mining, differential (context, not gated: "
              "shared-machine jitter\nexceeds the effect being measured)\n");
  std::printf("telemetry overhead (%zu executions, 25 vertices, %d rounds, "
              "median round)\n",
              executions, rounds);
  std::printf("  %-20s %12s %12s %10s\n", "config", "wall_s", "cpu_s",
              "overhead");
  for (const Config& config : configs) {
    std::printf("  %-20s %12.4f %12.4f %9.2f%%\n", config.name.c_str(),
                Median(config.wall_rounds), Median(config.cpu_rounds),
                overhead_pct(config));
  }

  std::ofstream out("BENCH_telemetry.json");
  out << "{\n";
  out << StrFormat("  \"sample_cost_ms\": %.4f,\n", steady.sample_cost_ms);
  out << StrFormat("  \"overhead_at_250ms_pct\": %.3f,\n",
                   steady.overhead_at_250ms_pct);
  out << StrFormat("  \"disabled_add_ns\": %.2f,\n",
                   steady.disabled_add_ns);
  out << StrFormat("  \"enabled_add_ns\": %.2f,\n", steady.enabled_add_ns);
  out << StrFormat("  \"executions\": %zu,\n", executions);
  out << StrFormat("  \"rounds\": %d,\n", rounds);
  out << StrFormat("  \"threads\": %d,\n", threads);
  out << "  \"configs\": [\n";
  for (size_t i = 0; i < configs.size(); ++i) {
    out << StrFormat(
        "    {\"name\": \"%s\", \"seconds\": %.6f, \"cpu_seconds\": "
        "%.6f, \"overhead_pct\": %.2f}%s\n",
        configs[i].name.c_str(), Median(configs[i].wall_rounds),
        Median(configs[i].cpu_rounds), overhead_pct(configs[i]),
        i + 1 < configs.size() ? "," : "");
  }
  out << "  ]\n}\n";

  bool pass = true;
  if (steady.overhead_at_250ms_pct > 2.0) {
    std::printf("FAIL: steady-state sampler cost %.3fms/tick = %.2f%% of the "
                "250ms interval (bar 2%%)\n",
                steady.sample_cost_ms, steady.overhead_at_250ms_pct);
    pass = false;
  }
  if (steady.disabled_add_ns > 25.0) {
    std::printf("FAIL: disabled counter add %.1fns/op (bar 25ns)\n",
                steady.disabled_add_ns);
    pass = false;
  }
  if (pass) std::printf("telemetry overhead gate: pass\n");
  return pass ? 0 : 1;
}
