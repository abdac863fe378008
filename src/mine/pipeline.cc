#include "mine/pipeline.h"

#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "log/segment_store.h"
#include "mine/cyclic_miner.h"
#include "mine/edge_collector.h"
#include "mine/general_dag_miner.h"
#include "mine/ooc_miner.h"
#include "mine/provenance.h"
#include "mine/special_dag_miner.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {
namespace mine_internal {

namespace {

constexpr const char* kCollectDropped =
    "precedence collection and all later phases skipped; the "
    "model has no edges";
constexpr const char* kLabelDropped =
    "occurrence labeling and all later phases skipped; the "
    "model has no edges";
constexpr const char* kTransitiveReductionDropped =
    "transitive reduction skipped; the model may contain "
    "redundant (transitively implied) edges";

// What every walk of one mine shares: the source and its activity count,
// the --max-executions prefix, the worker pool, and the running tally of
// window visits.
struct Walk {
  MineSource source;
  NodeId n = 0;
  int64_t limit = 0;
  ThreadPool* pool = nullptr;
  size_t chunk_size = 0;
  int64_t visits = 0;
};

// Applies `fn` to each non-empty window in order, visiting at most
// `walk->limit` executions overall (the tail window is trimmed to fit).
// `fn` returns whether to keep going.
Status ForEachWindow(Walk* walk,
                     const std::function<Result<bool>(const EventLog&)>& fn) {
  int64_t remaining = walk->limit;
  auto visit = [&](const EventLog& window) -> Result<bool> {
    ++walk->visits;
    if (static_cast<int64_t>(window.num_executions()) <= remaining) {
      remaining -= static_cast<int64_t>(window.num_executions());
      return fn(window);
    }
    EventLog trimmed;
    trimmed.dictionary() = window.dictionary();
    for (int64_t e = 0; e < remaining; ++e) {
      trimmed.AddExecution(window.execution(static_cast<size_t>(e)));
    }
    remaining = 0;
    return fn(trimmed);
  };
  if (walk->source.log != nullptr) return visit(*walk->source.log).status();

  SegmentStore* store = walk->source.store;
  static obs::Counter* visited =
      obs::MetricsRegistry::Get().GetCounter("ooc.windows_visited");
  for (size_t i = 0; i < store->num_segments() && remaining > 0; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> window,
                              store->Segment(i));
    if (window->num_executions() == 0) continue;
    visited->Increment();
    if (walk->source.stats != nullptr) ++walk->source.stats->windows;
    PROCMINE_ASSIGN_OR_RETURN(bool keep_going, visit(*window));
    if (!keep_going) break;
  }
  return Status::OK();
}

// Window visits one full walk of a store makes, per the manifest: the
// non-empty segments that hold the first `limit` executions.
int64_t WindowsPerWalk(const SegmentStore& store, int64_t limit) {
  int64_t windows = 0;
  for (const SegmentInfo& segment : store.segments()) {
    if (limit <= 0) break;
    if (segment.executions == 0) continue;
    ++windows;
    limit -= segment.executions;
  }
  return windows;
}

// What a scan walk settled: kAuto's choice, steps 1-2's counts and, for
// Algorithms 2 and 3, the distinct activity sets steps 5-6 reduce, both in
// the algorithm's id space (labeled ids on the cyclic path).
struct Scan {
  MinerAlgorithm selected = MinerAlgorithm::kSpecialDag;  // kAuto only
  bool repeats = false;  // kAuto stopped at a repeat: scan again, labeling
  bool cut = false;      // the budget ran out before some window's collect
  EdgeCounts counts;
  IdSetTable sets;
  OccurrenceLabeler labeler;  // fed on the cyclic path only
  int64_t executions = 0;     // executions collected
  int64_t events = 0;
};

// The span of a window's check loop, named after the in-memory phase it
// replaces.
const char* CheckSpan(MinerAlgorithm algorithm) {
  switch (algorithm) {
    case MinerAlgorithm::kSpecialDag:
      return "special_dag.validate";
    case MinerAlgorithm::kCyclic:
      return "cyclic.label";
    case MinerAlgorithm::kAuto:
    case MinerAlgorithm::kGeneralDag:
      break;
  }
  return "general_dag.validate";
}

// One scan walk with `algorithm`'s check. Every execution of a window is
// checked before the window is collected, so the first bad execution in
// log order is the one reported. Labels are interned in log order, so they
// match the ids a whole-log labeling pass assigns. Each window's executions
// are counted and their activity sets gathered in one pass. Windows
// partition the executions, and the collector's once-per-execution stamp
// never crosses executions, so the summed counts equal a one-shot
// collection over the whole log.
Status ScanWindows(Walk* walk, MinerAlgorithm algorithm,
                   const MinerOptions& options, Scan* scan) {
  std::optional<obs::ScopedSpan> span;
  std::optional<obs::ScopedPhase> phase;
  if (walk->source.store != nullptr) {
    span.emplace("ooc.collect");
    phase.emplace("ooc.collect");
  }
  const NodeId n = walk->n;
  std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
  return ForEachWindow(walk, [&](const EventLog& w) -> Result<bool> {
    {
      PROCMINE_SPAN(CheckSpan(algorithm));
      for (const Execution& exec : w.executions()) {
        switch (algorithm) {
          case MinerAlgorithm::kAuto: {
            const MinerAlgorithm kind = ClassifyExecution(exec, n, &seen);
            if (kind == MinerAlgorithm::kCyclic) {
              scan->repeats = true;
              return false;
            }
            if (kind == MinerAlgorithm::kGeneralDag) scan->selected = kind;
            break;
          }
          case MinerAlgorithm::kGeneralDag:
            PROCMINE_RETURN_NOT_OK(
                ValidateNoRepeats(exec, w.dictionary(), &seen));
            break;
          case MinerAlgorithm::kSpecialDag:
            PROCMINE_RETURN_NOT_OK(
                ValidateExactlyOnce(exec, w.dictionary(), n, &seen));
            break;
          case MinerAlgorithm::kCyclic:
            scan->labeler.Observe(exec, w.dictionary());
            break;
        }
      }
    }
    if (scan->cut || (options.budget != nullptr &&
                      options.budget->Check() != BudgetResource::kNone)) {
      scan->cut = true;
      return true;
    }
    EventLog labeled;
    if (algorithm == MinerAlgorithm::kCyclic) {
      labeled = RelabelLog(w, scan->labeler, walk->pool);
    }
    const EventLog& log = algorithm == MinerAlgorithm::kCyclic ? labeled : w;
    scan->executions += static_cast<int64_t>(w.num_executions());
    scan->events += 2 * w.TotalInstances();
    EdgeCounts counts = CollectPrecedenceEdges(
        log, walk->pool, options.provenance, walk->chunk_size,
        algorithm == MinerAlgorithm::kSpecialDag ? nullptr : &scan->sets);
    if (scan->counts.empty()) {
      scan->counts = std::move(counts);
    } else {
      for (const auto& [key, count] : counts) scan->counts[key] += count;
    }
    return true;
  });
}

// Steps 2-7 from the scan, over `n` ids of the scan's id space: the noise
// threshold and 2-cycles, then transitive reduction (Algorithm 1) or
// intra-SCC edges and steps 5-6 (Algorithms 2 and 3). A budget cut returns
// the best graph so far.
Result<DirectedGraph> Finish(const Walk& walk, MinerAlgorithm algorithm,
                             const MinerOptions& options, const Scan& scan,
                             NodeId n) {
  const bool special = algorithm == MinerAlgorithm::kSpecialDag;
  if (scan.cut) {
    BudgetCut(options.budget, options.degradation,
              special ? "special_dag.collect" : "general_dag.collect",
              kCollectDropped);
    return DirectedGraph(n);
  }
  PROCMINE_SPAN(special ? "special_dag.mine" : "general_dag.mine");
  ProvenanceRecorder* prov = options.provenance;
  DirectedGraph g =
      BuildPrecedenceGraph(scan.counts, n, options.noise_threshold, prov);
  RemoveTwoCycles(&g, prov);
  if (!special) {
    RemoveIntraSccEdges(&g, prov);
    PROCMINE_DCHECK(!HasCycle(g));
  }

  // Without its final reduction the graph is still a partial model (for
  // Algorithms 2 and 3 a conformal one, by Theorem 5), so a cut keeps it.
  if (BudgetCut(options.budget, options.degradation,
                special ? "special_dag.reduce" : "general_dag.reduce",
                special ? kTransitiveReductionDropped : kReduceDropped)) {
    return g;
  }
  DirectedGraph reduced;
  if (special) {
    PROCMINE_SPAN("special_dag.reduce");
    Result<DirectedGraph> result = TransitiveReduction(g);
    if (!result.ok()) {
      return Status::FailedPrecondition(
          "precedence graph is cyclic after removing 2-cycles; the log "
          "violates the special-DAG assumptions (try GeneralDagMiner or a "
          "higher noise threshold): " +
          result.status().message());
    }
    reduced = result.MoveValueOrDie();
  } else {
    PROCMINE_SPAN("general_dag.reduce");
    std::optional<obs::ScopedPhase> phase;
    if (walk.source.store != nullptr) phase.emplace("ooc.reduce");
    PROCMINE_ASSIGN_OR_RETURN(
        reduced, ReduceActivitySets(g, scan.sets, walk.pool, walk.chunk_size,
                                    options.budget, options.degradation));
  }
  if (prov != nullptr) {
    for (const Edge& e : g.Edges()) {
      if (!reduced.HasEdge(e.from, e.to)) {
        prov->MarkDropped(e.from, e.to, DropReason::kTransitiveReduction);
      }
    }
  }
  return reduced;
}

}  // namespace

MinerAlgorithm ClassifyExecution(const Execution& exec, NodeId n,
                                 std::vector<uint8_t>* seen) {
  if (FirstRepeat(exec, seen) >= 0) return MinerAlgorithm::kCyclic;
  return exec.size() == static_cast<size_t>(n) ? MinerAlgorithm::kSpecialDag
                                               : MinerAlgorithm::kGeneralDag;
}

Result<ProcessGraph> MineWindows(const MineSource& source,
                                 const MinerOptions& options) {
  SegmentStore* store = source.store;
  const int64_t total =
      store != nullptr ? store->num_executions()
                       : static_cast<int64_t>(source.log->num_executions());
  if (total == 0) return Status::InvalidArgument("log is empty");
  ProvenanceRecorder* prov = options.provenance;
  if (store != nullptr && prov != nullptr) {
    return Status::InvalidArgument(
        "provenance recording needs the whole log resident; use the "
        "in-memory mining path for run reports");
  }
  const ActivityDictionary& dict =
      store != nullptr ? store->dictionary() : source.log->dictionary();

  // --max-executions: mine only the first N executions (activity ids stay
  // the source's) and record the truncation.
  int64_t limit = total;
  if (options.budget != nullptr && options.budget->OverExecutionLimit(total)) {
    limit = options.budget->limits().max_executions;
    if (options.degradation != nullptr && !options.degradation->degraded) {
      options.degradation->degraded = true;
      options.degradation->resource = BudgetResource::kExecutions;
      options.degradation->cut_phase = "miner.input";
      options.degradation->dropped = StrFormat(
          "%lld of %lld executions beyond --max-executions ignored",
          static_cast<long long>(total - limit),
          static_cast<long long>(total));
    }
    if (limit == 0) {
      return Status::InvalidArgument("max-executions leaves the log empty");
    }
  }
  // The truncated log keeps the whole dictionary, so an activity-free log
  // is rejected here, before any budget probe.
  const NodeId n = dict.size();
  if (n == 0) return Status::InvalidArgument("log is empty");

  std::unique_ptr<ThreadPool> pool =
      PoolForInput(options.num_threads, static_cast<size_t>(limit));
  Walk walk{source, n, limit, pool.get(), options.chunk_size};

  // Progress denominators for the telemetry status surface: the window
  // visits a store mine plans (one walk, plus kAuto's cyclic-detection
  // prefix once it is known) and the executions it mines.
  obs::Gauge* windows_total = nullptr;
  int64_t per_walk = 0;
  if (store != nullptr) {
    static obs::Gauge* ooc_windows_total =
        obs::MetricsRegistry::Get().GetGauge("ooc.windows_total");
    static obs::Gauge* executions_total =
        obs::MetricsRegistry::Get().GetGauge("progress.executions_total");
    windows_total = ooc_windows_total;
    per_walk = WindowsPerWalk(*store, limit);
    windows_total->Set(per_walk);
    executions_total->Set(limit);
  }

  // kAuto on a cyclic log stops at the first repeat and scans again with
  // occurrence labeling, after the "cyclic.label" probe an explicit
  // Algorithm 3 mine makes before its one walk.
  Scan scan;
  MinerAlgorithm algorithm = options.algorithm;
  if (algorithm == MinerAlgorithm::kAuto) {
    PROCMINE_RETURN_NOT_OK(ScanWindows(&walk, algorithm, options, &scan));
    algorithm = scan.repeats ? MinerAlgorithm::kCyclic : scan.selected;
    if (scan.repeats && windows_total != nullptr) {
      windows_total->Set(walk.visits + per_walk);
    }
  }
  if (prov != nullptr) prov->SetAlgorithm(algorithm);
  if (algorithm == MinerAlgorithm::kCyclic &&
      BudgetCut(options.budget, options.degradation, "cyclic.label",
                kLabelDropped)) {
    if (prov != nullptr) prov->SetActivityNames(dict.names());
    return ProcessGraph(DirectedGraph(n), dict.names());
  }
  if (options.algorithm != MinerAlgorithm::kAuto || scan.repeats) {
    scan = Scan();
    PROCMINE_RETURN_NOT_OK(ScanWindows(&walk, algorithm, options, &scan));
  }
  const bool cyclic = algorithm == MinerAlgorithm::kCyclic;
  if (cyclic) {
    static obs::Counter* labels =
        obs::MetricsRegistry::Get().GetCounter("cyclic.labels_created");
    labels->Add(scan.labeler.labeled_dictionary().size());
  }
  if (store != nullptr) {
    if (source.stats != nullptr) {
      source.stats->executions += scan.executions;
      source.stats->events += scan.events;
    }
    static obs::Counter* mined =
        obs::MetricsRegistry::Get().GetCounter("ooc.executions_mined");
    mined->Add(scan.executions);
  }

  // Steps 2-7 run in the labeled id space on the cyclic path.
  const ActivityDictionary& space =
      cyclic ? scan.labeler.labeled_dictionary() : dict;
  PROCMINE_ASSIGN_OR_RETURN(
      DirectedGraph graph,
      Finish(walk, algorithm, options, scan, space.size()));
  if (prov != nullptr) prov->SetActivityNames(space.names());
  if (!cyclic) return ProcessGraph(std::move(graph), dict.names());

  // Step 8: merge equivalent sets, keeping edges between different
  // activities. The recorder keeps the labeled ids and gets the mapping, so
  // report consumers can relate "A#2 -> B#1" to the base edge A -> B.
  PROCMINE_SPAN("cyclic.merge");
  const std::vector<ActivityId>& to_base = scan.labeler.labeled_to_base();
  if (prov != nullptr) prov->SetBaseMapping(to_base, dict.names());
  DirectedGraph merged(n);
  for (const Edge& e : graph.Edges()) {
    ActivityId from = to_base[static_cast<size_t>(e.from)];
    ActivityId to = to_base[static_cast<size_t>(e.to)];
    PROCMINE_CHECK(from >= 0 && to >= 0);
    if (from != to) merged.AddEdge(from, to);
  }
  return ProcessGraph(std::move(merged), dict.names());
}

}  // namespace mine_internal
}  // namespace procmine
