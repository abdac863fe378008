#include "mine/ooc_miner.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/transitive_reduction.h"
#include "mine/cyclic_miner.h"
#include "mine/edge_collector.h"
#include "mine/general_dag_miner.h"
#include "mine/special_dag_miner.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/id_set_table.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {

namespace {

// The degradation text must match the in-memory miners byte-for-byte: a
// budget-cut out-of-core run reports the same DegradationInfo.
constexpr const char* kCollectDropped =
    "precedence collection and all later phases skipped; the "
    "model has no edges";

// What every walk over the store shares: the --max-executions prefix, the
// worker pool, and the running tally of window visits.
struct Walk {
  SegmentStore* store = nullptr;
  int64_t limit = 0;
  ThreadPool* pool = nullptr;
  size_t chunk_size = 0;
  OocMineStats* stats = nullptr;
  int64_t visits = 0;
};

// Applies `fn` to each non-empty segment window in store order, visiting at
// most `walk->limit` executions overall (the tail window is trimmed to fit).
// `fn` returns whether to keep iterating.
Status ForEachWindow(Walk* walk,
                     const std::function<Result<bool>(const EventLog&)>& fn) {
  SegmentStore* store = walk->store;
  int64_t remaining = walk->limit;
  for (size_t i = 0; i < store->num_segments() && remaining > 0; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> window,
                              store->Segment(i));
    if (window->num_executions() == 0) continue;
    ++walk->visits;
    if (walk->stats != nullptr) ++walk->stats->windows;
    static obs::Counter* visited =
        obs::MetricsRegistry::Get().GetCounter("ooc.windows_visited");
    visited->Increment();
    bool keep_going = true;
    if (static_cast<int64_t>(window->num_executions()) <= remaining) {
      remaining -= static_cast<int64_t>(window->num_executions());
      PROCMINE_ASSIGN_OR_RETURN(keep_going, fn(*window));
    } else {
      EventLog trimmed;
      trimmed.dictionary() = window->dictionary();
      for (int64_t e = 0; e < remaining; ++e) {
        trimmed.AddExecution(window->execution(static_cast<size_t>(e)));
      }
      remaining = 0;
      PROCMINE_ASSIGN_OR_RETURN(keep_going, fn(trimmed));
    }
    if (!keep_going) break;
  }
  return Status::OK();
}

// Window visits one full walk makes, per the manifest: the non-empty
// segments that hold the first `limit` executions.
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

// Rewrites `window` into `scratch` in the labeled id space. Collection and
// set gathering read only activity ids, so no dictionary is attached.
const EventLog* Relabel(const EventLog& window, OccurrenceLabeler* labeler,
                        EventLog* scratch) {
  *scratch = EventLog();
  for (const Execution& exec : window.executions()) {
    scratch->AddExecution(labeler->Relabel(exec));
  }
  return scratch;
}

// What the scan walk settled: the algorithm, steps 1-2's counts and, for
// Algorithms 2 and 3, the distinct activity sets steps 5-6 reduce, both in
// that algorithm's id space (labeled ids on the cyclic path).
struct Scan {
  MinerAlgorithm algorithm = MinerAlgorithm::kAuto;
  bool complete = false;  // false: kAuto stopped at a repeat; scan again
  EdgeCounts counts;
  IdSetTable sets;
  int64_t executions = 0;
  int64_t events = 0;
  OccurrenceLabeler labeler;  // fed on the cyclic path only
};

// The scan walk, the only walk over the store (kAuto on a cyclic log makes
// it twice, the first time stopping at the first repeat). Each window first
// has every execution checked the way `algorithm`'s in-memory path
// would, so the first bad execution in log order is the one reported:
//   kAuto    SelectAlgorithm's checks, which imply both validations; the
//            first repeated activity stops the walk (the log is cyclic)
//   general  ValidateNoRepeats
//   special  ValidateExactlyOnce
//   cyclic   OccurrenceLabeler::Observe; the window is then relabeled.
//            Labels are interned in log order, so they match the ids a full
//            labeling pass would assign.
// Then the window's precedence pairs are collected (steps 1-2), counters
// summed, and its executions' activity sets are added to the table (not for
// Algorithm 1, which needs none). Windows partition the executions, and the
// per-execution dedup in CollectSpan never crosses executions, so the sums
// equal the one-shot in-memory collection; the table ends up with the same
// distinct sets as the in-memory one.
Status ScanWindows(Walk* walk, MinerAlgorithm algorithm, Scan* scan) {
  PROCMINE_SPAN("ooc.collect");
  PROCMINE_PHASE("ooc.collect");
  const NodeId n = walk->store->dictionary().size();
  bool repeats = false;
  bool all_exactly_once = true;
  std::vector<bool> seen(static_cast<size_t>(n));
  EventLog labeled;
  PROCMINE_RETURN_NOT_OK(ForEachWindow(
      walk, [&](const EventLog& w) -> Result<bool> {
        for (const Execution& exec : w.executions()) {
          switch (algorithm) {
            case MinerAlgorithm::kAuto:
              std::fill(seen.begin(), seen.end(), false);
              for (const ActivityInstance& inst : exec.instances()) {
                if (seen[static_cast<size_t>(inst.activity)]) {
                  repeats = true;
                  return false;
                }
                seen[static_cast<size_t>(inst.activity)] = true;
              }
              if (exec.size() != static_cast<size_t>(n)) {
                all_exactly_once = false;
              }
              break;
            case MinerAlgorithm::kGeneralDag:
              PROCMINE_RETURN_NOT_OK(
                  mine_internal::ValidateNoRepeats(exec, w.dictionary(), n));
              break;
            case MinerAlgorithm::kSpecialDag:
              PROCMINE_RETURN_NOT_OK(mine_internal::ValidateExactlyOnce(
                  exec, w.dictionary(), n));
              break;
            case MinerAlgorithm::kCyclic:
              scan->labeler.Observe(exec, w.dictionary());
              break;
          }
        }
        const EventLog* log = algorithm == MinerAlgorithm::kCyclic
                                  ? Relabel(w, &scan->labeler, &labeled)
                                  : &w;
        scan->executions += static_cast<int64_t>(log->num_executions());
        scan->events += 2 * log->TotalInstances();
        EdgeCounts counts =
            CollectPrecedenceEdges(*log, walk->pool, nullptr,
                                   walk->chunk_size);
        for (const auto& [key, count] : counts) scan->counts[key] += count;
        if (algorithm != MinerAlgorithm::kSpecialDag) {
          mine_internal::GatherActivitySets(*log, walk->pool,
                                            walk->chunk_size, &scan->sets);
        }
        return true;
      }));
  scan->complete = !repeats;
  if (algorithm == MinerAlgorithm::kCyclic) {
    static obs::Counter* labels =
        obs::MetricsRegistry::Get().GetCounter("cyclic.labels_created");
    labels->Add(scan->labeler.labeled_dictionary().size());
  }
  scan->algorithm = algorithm != MinerAlgorithm::kAuto ? algorithm
                    : repeats ? MinerAlgorithm::kCyclic
                    : all_exactly_once ? MinerAlgorithm::kSpecialDag
                                       : MinerAlgorithm::kGeneralDag;
  return Status::OK();
}

// Algorithm 2's steps 3-6 from the scan, in its id space (`n` labeled ids
// on the cyclic path): no further walk, since steps 5-6 read only the
// scanned activity sets. Phase names and degradation texts match
// GeneralDagMiner::Mine.
Result<DirectedGraph> FinishGeneral(const Walk& walk,
                                    const MinerOptions& options,
                                    const Scan& scan, NodeId n) {
  DirectedGraph g =
      BuildPrecedenceGraph(scan.counts, n, options.noise_threshold, nullptr);
  RemoveTwoCycles(&g, nullptr);
  RemoveIntraSccEdges(&g, nullptr);
  if (BudgetCut(options.budget, options.degradation, "general_dag.reduce",
                mine_internal::kReduceDropped)) {
    return g;
  }
  PROCMINE_SPAN("general_dag.reduce");
  PROCMINE_PHASE("ooc.reduce");
  return mine_internal::ReduceActivitySets(g, scan.sets, walk.pool,
                                           walk.chunk_size, options.budget,
                                           options.degradation);
}

// Algorithm 1's steps 3-4 from the scanned counts: no further walk.
Result<ProcessGraph> FinishSpecial(const SegmentStore& store,
                                   const MinerOptions& options,
                                   const EdgeCounts& counts) {
  PROCMINE_SPAN("special_dag.mine");
  const NodeId n = store.dictionary().size();
  DirectedGraph g =
      BuildPrecedenceGraph(counts, n, options.noise_threshold, nullptr);
  RemoveTwoCycles(&g, nullptr);
  if (BudgetCut(options.budget, options.degradation, "special_dag.reduce",
                "transitive reduction skipped; the model may contain "
                "redundant (transitively implied) edges")) {
    return ProcessGraph(std::move(g), store.dictionary().names());
  }
  PROCMINE_SPAN("special_dag.reduce");
  Result<DirectedGraph> reduced = TransitiveReduction(g);
  if (!reduced.ok()) {
    return Status::FailedPrecondition(
        "precedence graph is cyclic after removing 2-cycles; the log "
        "violates the special-DAG assumptions (try GeneralDagMiner or a "
        "higher noise threshold): " +
        reduced.status().message());
  }
  return ProcessGraph(reduced.MoveValueOrDie(), store.dictionary().names());
}

}  // namespace

Result<ProcessGraph> OutOfCoreMiner::Mine(SegmentStore* store,
                                          OocMineStats* stats) const {
  PROCMINE_SPAN("ooc.mine");
  PROCMINE_PHASE("ooc.mine");
  if (store->num_executions() == 0) {
    return Status::InvalidArgument("log is empty");
  }
  if (options_.provenance != nullptr) {
    return Status::InvalidArgument(
        "provenance recording needs the whole log resident; use the "
        "in-memory mining path for run reports");
  }

  // --max-executions applies at the facade, exactly as in ProcessMiner:
  // mine only the first N executions and record the truncation.
  int64_t limit = store->num_executions();
  if (options_.budget != nullptr &&
      options_.budget->OverExecutionLimit(store->num_executions())) {
    const int64_t keep = options_.budget->limits().max_executions;
    if (options_.degradation != nullptr && !options_.degradation->degraded) {
      options_.degradation->degraded = true;
      options_.degradation->resource = BudgetResource::kExecutions;
      options_.degradation->cut_phase = "miner.input";
      options_.degradation->dropped = StrFormat(
          "%lld of %lld executions beyond --max-executions ignored",
          static_cast<long long>(store->num_executions() - keep),
          static_cast<long long>(store->num_executions()));
    }
    limit = keep;
    if (limit == 0) {
      return Status::InvalidArgument("max-executions leaves the log empty");
    }
  }
  // Every in-memory miner rejects an activity-free log before any budget
  // probe; the truncated log keeps the whole dictionary, so test it here.
  const NodeId n = store->dictionary().size();
  if (n == 0) return Status::InvalidArgument("log is empty");

  const int threads = ResolveThreadCount(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 &&
      limit >= static_cast<int64_t>(ThreadPool::kSmallInputInlineThreshold)) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  Walk walk{store, limit, pool.get(), options_.chunk_size, stats};

  // Progress denominators for the telemetry status surface: the window
  // visits this mine plans (one walk, plus kAuto's cyclic-detection prefix
  // once it is known) and the executions it mines.
  static obs::Gauge* windows_total =
      obs::MetricsRegistry::Get().GetGauge("ooc.windows_total");
  static obs::Gauge* executions_total =
      obs::MetricsRegistry::Get().GetGauge("progress.executions_total");
  const int64_t per_walk = WindowsPerWalk(*store, limit);
  windows_total->Set(per_walk);
  executions_total->Set(limit);

  // One scan walk fixes the algorithm (kAuto), validates, and collects.
  // kAuto on a cyclic log stops at the first repeat and scans again with
  // occurrence labeling, after the same "cyclic.label" probe as in memory.
  Scan scan;
  MinerAlgorithm algorithm = options_.algorithm;
  if (algorithm == MinerAlgorithm::kAuto) {
    PROCMINE_RETURN_NOT_OK(ScanWindows(&walk, algorithm, &scan));
    algorithm = scan.algorithm;
    if (!scan.complete) windows_total->Set(walk.visits + per_walk);
  }
  if (algorithm == MinerAlgorithm::kCyclic &&
      BudgetCut(options_.budget, options_.degradation, "cyclic.label",
                "occurrence labeling and all later phases skipped; the "
                "model has no edges")) {
    return ProcessGraph(DirectedGraph(n), store->dictionary().names());
  }
  if (!scan.complete) {
    scan = Scan();
    PROCMINE_RETURN_NOT_OK(ScanWindows(&walk, algorithm, &scan));
  }
  if (stats != nullptr) {
    stats->executions += scan.executions;
    stats->events += scan.events;
  }
  static obs::Counter* mined =
      obs::MetricsRegistry::Get().GetCounter("ooc.executions_mined");
  mined->Add(scan.executions);

  // The in-memory miners probe the collect cut before collecting; here the
  // counts are already in hand, so a cut discards them, leaving the same
  // empty model and DegradationInfo.
  if (BudgetCut(options_.budget, options_.degradation,
                algorithm == MinerAlgorithm::kSpecialDag
                    ? "special_dag.collect"
                    : "general_dag.collect",
                kCollectDropped)) {
    return ProcessGraph(DirectedGraph(n), store->dictionary().names());
  }
  switch (algorithm) {
    case MinerAlgorithm::kSpecialDag:
      return FinishSpecial(*store, options_, scan.counts);
    case MinerAlgorithm::kGeneralDag: {
      PROCMINE_SPAN("general_dag.mine");
      PROCMINE_ASSIGN_OR_RETURN(DirectedGraph dag,
                                FinishGeneral(walk, options_, scan, n));
      return ProcessGraph(std::move(dag), store->dictionary().names());
    }
    case MinerAlgorithm::kCyclic: {
      // Steps 3-7 in the labeled id space (the scan relabeled each window
      // on the fly, so the labeled log is never whole in memory), then step
      // 8: merge equivalent sets, keeping edges between different
      // activities.
      PROCMINE_SPAN("cyclic.mine");
      PROCMINE_ASSIGN_OR_RETURN(
          DirectedGraph labeled_dag,
          FinishGeneral(walk, options_, scan,
                        scan.labeler.labeled_dictionary().size()));
      PROCMINE_SPAN("cyclic.merge");
      const std::vector<ActivityId>& to_base = scan.labeler.labeled_to_base();
      DirectedGraph merged(n);
      for (const Edge& e : labeled_dag.Edges()) {
        ActivityId from = to_base[static_cast<size_t>(e.from)];
        ActivityId to = to_base[static_cast<size_t>(e.to)];
        if (from != to) merged.AddEdge(from, to);
      }
      return ProcessGraph(std::move(merged), store->dictionary().names());
    }
    case MinerAlgorithm::kAuto:
      break;
  }
  return Status::Internal("unreachable: unresolved miner algorithm");
}

}  // namespace procmine
