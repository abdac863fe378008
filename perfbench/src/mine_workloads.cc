// mine_text and mine_store: the `procmine mine <log>` command path over a
// text log mined in memory, and over a segment store mined out of core.
//
// Both share one runner. Set-up writes the input in a forked child (five
// times; setup_s is the median), so generation memory never counts toward
// peak_rss_mb. A few more children each run one repetition in a fresh
// process (recover_s). Then one untimed warm-up repetition, and the timed
// phase: repetitions back to back for the configured seconds. Outputs are
// checked after peak RSS is read.

#include <filesystem>
#include <fstream>

#include "log/reader.h"
#include "log/segment_store.h"
#include "log/writer.h"
#include "mine/conformance.h"
#include "mine/miner.h"
#include "mine/ooc_miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "workloads.h"

namespace perfbench {
namespace {

using procmine::ActivityDictionary;
using procmine::EventLog;
using procmine::Execution;
using procmine::MinerOptions;
using procmine::ProcessGraph;

/// What one repetition produced.
struct RepStats {
  double absorb_s = 0.0;  ///< input -> mined model (read/open + mine)
  double total_s = 0.0;   ///< input -> model text (+ ToDot)
  std::string dot;
  int64_t events = 0;
  int64_t store_loads = 0;
  int64_t store_hits = 0;
  int64_t ooc_windows = 0;
};

/// One mine workload: how to write its input, run one repetition, and
/// check the model once the timed phase is over.
struct MineSpec {
  std::function<bool()> setup;
  std::function<bool(RepStats*)> rep;
  std::function<bool(const std::string& dot, std::string* why)> check;
  std::string sizes;  ///< printed as the first note
  int restarts = 4;                ///< fresh-process repetitions (recover_s)
  /// Per-layer extras read once after the traced phase.
  std::function<void(std::map<std::string, double>*,
                     std::map<std::string, std::string>*)>
      extra_layers;
};

/// Where each library or benchmark span's self time is attributed.
const std::map<std::string, std::string>& MineLayerOfSpan() {
  static const std::map<std::string, std::string> kMap = {
      {"bench.read_file", "log.parse.self_s"},
      {"log.read_mmap", "log.parse.self_s"},
      {"log.parse_shard", "log.parse.self_s"},
      {"log.assemble", "log.assemble.self_s"},
      {"bench.store_open", "store.open.self_s"},
      {"segment.load", "store.load.self_s"},
      {"edges.collect", "mine.collect.self_s"},
      {"edges.collect_shard", "mine.collect.self_s"},
      {"ooc.collect", "mine.collect.self_s"},
      {"general_dag.reduce", "mine.reduce.self_s"},
      {"general_dag.reduce_shard", "mine.reduce.self_s"},
      {"general_dag.validate", "mine.validate.self_s"},
      {"ooc.select", "ooc.select.self_s"},
      {"bench.to_dot", "workflow.serialize.self_s"},
      {"bench.mine", "mine.other.self_s"},
      {"general_dag.mine", "mine.other.self_s"},
      {"ooc.mine", "mine.other.self_s"},
      {"edges.build_graph", "mine.other.self_s"},
      {"edges.remove_two_cycles", "mine.other.self_s"},
      {"edges.remove_intra_scc", "mine.other.self_s"},
  };
  return kMap;
}

struct Phase {
  std::vector<double> absorb_s;
  std::vector<double> total_s;
  int64_t reps = 0;
  int64_t failed = 0;
  int64_t events = 0;
  int64_t store_loads = 0;
  int64_t store_hits = 0;
  int64_t ooc_windows = 0;
};

/// Repetitions back to back until `seconds` have passed (at least three).
/// A repetition fails when it errors or its model differs from `reference`.
Phase RunPhase(double seconds, const MineSpec& spec,
               const std::string& reference) {
  Phase phase;
  const auto start = Clock::now();
  while (phase.reps < 3 || SecondsSince(start) < seconds) {
    RepStats r;
    const bool ok = spec.rep(&r);
    ++phase.reps;
    if (!ok || r.dot != reference) {
      ++phase.failed;
      continue;
    }
    phase.absorb_s.push_back(r.absorb_s);
    phase.total_s.push_back(r.total_s);
    phase.events = r.events;
    phase.store_loads += r.store_loads;
    phase.store_hits += r.store_hits;
    phase.ooc_windows += r.ooc_windows;
  }
  return phase;
}

Outcome RunMine(const RunConfig& config, const MineSpec& spec) {
  Outcome out;
  out.Note(spec.sizes);
  out.attempted = 1;

  const int setups = config.trace ? 1 : 5;
  const double setup_s = MedianSetupSeconds(
      setups, [&](int) { return RunInChild(spec.setup); });
  if (setup_s < 0) {
    out.Fail("set-up failed", 1);
    return out;
  }

  std::vector<double> restarts;
  if (!config.trace) {
    for (int i = 0; i < spec.restarts; ++i) {
      const double s = RunInChild([&] {
        RepStats r;
        return spec.rep(&r);
      });
      if (s < 0) {
        out.Fail("repetition in a fresh process failed", 1);
        return out;
      }
      restarts.push_back(s);
    }
  }

  RepStats warm;
  if (!spec.rep(&warm)) {
    out.Fail("warm-up repetition failed", 1);
    return out;
  }

  Phase timed = RunPhase(config.seconds, spec, warm.dot);
  Phase traced;
  std::vector<procmine::obs::SpanEvent> spans;
  procmine::obs::MetricsSnapshot counters;
  if (config.trace) {
    procmine::obs::TraceRecorder::Get().Reset();
    procmine::obs::MetricsRegistry::Get().ResetAll();
    procmine::obs::SetMetricsEnabled(true);
    procmine::obs::SetTracingEnabled(true);
    traced = RunPhase(config.seconds, spec, warm.dot);
    procmine::obs::SetTracingEnabled(false);
    procmine::obs::SetMetricsEnabled(false);
    spans = procmine::obs::TraceRecorder::Get().Snapshot();
    counters = procmine::obs::MetricsRegistry::Get().Snapshot();
  }
  const double peak_rss_mb = PeakRssMb();

  out.attempted = timed.reps + traced.reps;
  out.failed = timed.failed + traced.failed;
  if (out.failed > 0) out.Fail("a repetition failed or its model differed", 0);
  // The check covers the one model every good repetition produced, so a
  // failed check fails them all.
  std::string why;
  if (!spec.check(warm.dot, &why)) {
    out.Fail(why, 0);
    out.failed = out.attempted;
  }

  const double events = static_cast<double>(timed.events);
  out.Note(StrFormat("timed repetitions: %lld (failed %lld), events per "
                     "repetition: %lld",
                     static_cast<long long>(timed.reps),
                     static_cast<long long>(timed.failed),
                     static_cast<long long>(timed.events)));

  if (!config.trace) {
    const size_t n = timed.total_s.size();
    out.Add("setup_s", setup_s, "s");
    out.Add("events_per_s", events / Median(timed.total_s), "1/s");
    out.Add("peak_rss_mb", peak_rss_mb, "MiB");
    out.Add("ack_p50_ms", Median(timed.absorb_s) * 1e3, "ms");
    out.Add("query_p50_ms", Median(timed.total_s) * 1e3, "ms");
    out.Add("recover_s", Median(restarts), "s");
    out.Note(StrFormat("ack_p50_ms = input -> mined model, query_p50_ms = "
                       "input -> model text, over %zu repetitions",
                       n));
    out.Note(StrFormat("setup_s: median of %d set-ups; recover_s: median of "
                       "%zu repetitions each in a fresh process",
                       setups, restarts.size()));
    return out;
  }

  // Per-layer view: self seconds per traced repetition.
  const double reps = static_cast<double>(traced.total_s.size());
  std::map<std::string, double> values =
      SelfSecondsByLayer(SelfSecondsByName(spans), MineLayerOfSpan());
  double attributed = 0.0;
  for (auto& [name, seconds] : values) {
    seconds /= reps;
    attributed += seconds;
  }
  std::map<std::string, std::string> bases;
  const std::string per_rep = StrFormat("per repetition, mean of %lld traced",
                                        static_cast<long long>(reps));
  for (const auto& [name, seconds] : values) bases[name] = per_rep;

  const double wall = Mean(traced.total_s);
  values["unattributed_s"] = wall - attributed;
  bases["unattributed_s"] =
      StrFormat("wall %.6f s per repetition - attributed %.6f s (%.1f%% of "
                "wall)",
                wall, attributed, 100.0 * (wall - attributed) / wall);
  const double untraced = Mean(timed.total_s);
  values["trace.overhead_frac"] = wall / untraced - 1.0;
  bases["trace.overhead_frac"] =
      StrFormat("traced mean %.6f s / untraced mean %.6f s over %zu "
                "repetitions",
                wall, untraced, timed.total_s.size());

  // End-to-end tails, from the untraced phase of this run.
  const std::string tail_base = StrFormat(
      "untraced, nearest rank over %zu repetitions (below 100 the maximum)",
      timed.total_s.size());
  values["ack_p99_ms"] = Percentile(timed.absorb_s, 0.99) * 1e3;
  bases["ack_p99_ms"] = tail_base;
  values["query_p99_ms"] = Percentile(timed.total_s, 0.99) * 1e3;
  bases["query_p99_ms"] = tail_base;

  const int64_t hits = counters.CounterTotal("general_dag.memo_hits");
  const int64_t misses = counters.CounterTotal("general_dag.memo_misses");
  values["mine.memo_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  bases["mine.memo_hit_ratio"] =
      StrFormat("hits %lld / lookups %lld", static_cast<long long>(hits),
                static_cast<long long>(hits + misses));

  if (traced.store_loads + traced.store_hits > 0) {
    values["store.loads"] = static_cast<double>(traced.store_loads) / reps;
    bases["store.loads"] = per_rep;
    values["store.hit_ratio"] =
        static_cast<double>(traced.store_hits) /
        static_cast<double>(traced.store_hits + traced.store_loads);
    bases["store.hit_ratio"] =
        StrFormat("hits %lld / (hits + loads) %lld",
                  static_cast<long long>(traced.store_hits),
                  static_cast<long long>(traced.store_hits +
                                         traced.store_loads));
    values["ooc.windows"] = static_cast<double>(traced.ooc_windows) / reps;
    bases["ooc.windows"] = per_rep;
  }
  if (spec.extra_layers) spec.extra_layers(&values, &bases);
  EmitPerLayer(values, bases, &out);
  return out;
}

ProcessGraph WorkloadDag(int32_t activities) {
  procmine::RandomDagOptions options;
  options.num_activities = activities;
  options.edge_density = procmine::PaperEdgeDensity(activities);
  options.seed = kGraphSeed;
  return procmine::GenerateRandomDag(options);
}

std::string ModelDot(const ProcessGraph& graph) {
  PROCMINE_SPAN("bench.to_dot");
  return graph.ToDot();
}

}  // namespace

// ---------------------------------------------------------------------------
// mine_text

Outcome RunMineText(const RunConfig& config) {
  const int32_t activities = config.tiny ? 20 : 100;
  const size_t executions = config.tiny ? 300 : 100000;
  const std::string path = config.work_dir + "/input.log";

  MineSpec spec;
  spec.restarts = 11;
  spec.sizes = StrFormat(
      "mine_text: %d activities (paper density), %zu walker executions, "
      "text log, 1 mining thread, execution seed %llu",
      activities, executions, static_cast<unsigned long long>(config.seed));
  spec.setup = [&] {
    ProcessGraph truth = WorkloadDag(activities);
    procmine::WalkLogOptions walk;
    walk.num_executions = executions;
    walk.seed = config.seed;
    auto log = procmine::GenerateWalkLog(truth, walk);
    if (!log.ok()) return false;
    const std::string text = procmine::LogWriter::ToString(*log);
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file.write(text.data(), static_cast<std::streamsize>(text.size()));
    return static_cast<bool>(file.flush());
  };
  MinerOptions options;
  options.num_threads = 1;
  auto read_and_mine = [&](EventLog* log) -> procmine::Result<ProcessGraph> {
    {
      PROCMINE_SPAN("bench.read_file");
      procmine::LogParseOptions parse;
      parse.num_threads = 1;
      auto read = procmine::LogReader::ReadFile(path, parse);
      if (!read.ok()) return read.status();
      *log = std::move(read).ValueOrDie();
    }
    PROCMINE_SPAN("bench.mine");
    return procmine::ProcessMiner(options).Mine(*log);
  };
  spec.rep = [&](RepStats* r) {
    const auto start = Clock::now();
    EventLog log;
    auto graph = read_and_mine(&log);
    if (!graph.ok()) return false;
    r->absorb_s = SecondsSince(start);
    r->dot = ModelDot(*graph);
    r->total_s = SecondsSince(start);
    r->events = 2 * log.TotalInstances();
    return true;
  };
  spec.check = [&](const std::string& dot, std::string* why) {
    EventLog log;
    auto graph = read_and_mine(&log);
    if (!graph.ok() || graph->ToDot() != dot) {
      *why = "re-mined model differs from the warm-up model";
      return false;
    }
    procmine::ConformanceChecker checker(&*graph);
    const procmine::ConformanceReport report = checker.CheckLog(log);
    if (!report.execution_complete) {
      *why = StrFormat(
          "%zu executions inconsistent with the mined model (Def 6)",
          report.inconsistent_executions.size());
      return false;
    }
    return true;
  };
  return RunMine(config, spec);
}

// ---------------------------------------------------------------------------
// mine_store

Outcome RunMineStore(const RunConfig& config) {
  const int32_t activities = config.tiny ? 12 : 40;
  const int64_t target_events = config.tiny ? 20000 : 4000000;
  const int64_t segment_events = config.tiny ? 2048 : (1 << 18);
  const int64_t resident_bytes = config.tiny ? (64 << 10) : (16 << 20);
  const std::string dir = config.work_dir + "/store";

  procmine::SegmentStoreOptions write_options;
  write_options.target_segment_events = segment_events;
  procmine::SegmentStoreOptions read_options;
  read_options.max_resident_bytes = resident_bytes;

  MineSpec spec;
  spec.setup = [&] {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    ProcessGraph truth = WorkloadDag(activities);
    ActivityDictionary dict;
    for (procmine::NodeId v = 0; v < truth.num_activities(); ++v) {
      dict.Intern(truth.name(v));
    }
    auto writer = procmine::SegmentedLogWriter::Create(dir, write_options);
    if (!writer.ok()) return false;
    procmine::WalkLogOptions walk;
    walk.num_executions = static_cast<size_t>(-1) / 2;
    walk.seed = config.seed;
    procmine::Status s = procmine::StreamWalkLog(
        truth, walk, target_events,
        [&](Execution&& exec) { return writer->Append(exec, dict); });
    return s.ok() && writer->Finish().ok();
  };
  spec.rep = [&](RepStats* r) {
    const auto start = Clock::now();
    auto store = [&] {
      PROCMINE_SPAN("bench.store_open");
      return procmine::SegmentStore::Open(dir, read_options);
    }();
    if (!store.ok()) return false;
    procmine::OocMineStats stats;
    auto graph = [&] {
      PROCMINE_SPAN("bench.mine");
      MinerOptions options;
      options.num_threads = 1;
      return procmine::OutOfCoreMiner(options).Mine(&*store, &stats);
    }();
    if (!graph.ok()) return false;
    r->absorb_s = SecondsSince(start);
    r->dot = ModelDot(*graph);
    r->total_s = SecondsSince(start);
    const procmine::SegmentStoreFootprint footprint = store->Footprint();
    r->events = footprint.events;
    r->store_loads = footprint.loads;
    r->store_hits = footprint.cache_hits;
    r->ooc_windows = stats.windows;
    return true;
  };
  spec.check = [&](const std::string& dot, std::string* why) {
    auto store = procmine::SegmentStore::Open(dir);
    if (!store.ok()) {
      *why = "store reopen failed: " + store.status().ToString();
      return false;
    }
    auto log = store->Materialize();
    if (!log.ok()) {
      *why = "materialize failed: " + log.status().ToString();
      return false;
    }
    MinerOptions options;
    options.num_threads = 1;
    auto graph = procmine::ProcessMiner(options).Mine(*log);
    if (!graph.ok() || graph->ToDot() != dot) {
      *why = "out-of-core model differs from ProcessMiner on Materialize()";
      return false;
    }
    return true;
  };
  spec.extra_layers = [&](std::map<std::string, double>* values,
                          std::map<std::string, std::string>* bases) {
    auto store = procmine::SegmentStore::Open(dir, read_options);
    if (!store.ok()) return;
    const procmine::SegmentStoreFootprint f = store->Footprint();
    (*values)["store.disk_bytes_per_event"] =
        static_cast<double>(f.disk_bytes) / static_cast<double>(f.events);
    (*bases)["store.disk_bytes_per_event"] =
        StrFormat("disk %lld B / events %lld",
                  static_cast<long long>(f.disk_bytes),
                  static_cast<long long>(f.events));
  };

  // The first note states the request; the store's own footprint follows
  // once it exists.
  spec.sizes = StrFormat(
      "mine_store: %d activities (paper density), ~%lld walker events, "
      "segments of %lld events, resident bound %lld B, 1 mining thread, "
      "execution seed %llu",
      activities, static_cast<long long>(target_events),
      static_cast<long long>(segment_events),
      static_cast<long long>(resident_bytes),
      static_cast<unsigned long long>(config.seed));
  Outcome out = RunMine(config, spec);
  auto store = procmine::SegmentStore::Open(dir, read_options);
  if (store.ok()) {
    const procmine::SegmentStoreFootprint f = store->Footprint();
    out.Note(StrFormat("store: %lld segments, %lld executions, %lld events, "
                       "%lld B on disk, %lld B decoded, resident bound %lld B",
                       static_cast<long long>(f.segments),
                       static_cast<long long>(f.executions),
                       static_cast<long long>(f.events),
                       static_cast<long long>(f.disk_bytes),
                       static_cast<long long>(f.estimated_memory_bytes),
                       static_cast<long long>(resident_bytes)));
  }
  return out;
}

}  // namespace perfbench
