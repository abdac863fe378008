#include "mine/general_dag_miner.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/transitive_reduction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {
namespace mine_internal {

const char* const kReduceDropped =
    "per-execution transitive reductions skipped; the model is conformal "
    "but keeps edges a full run would have removed";

ActivityId FirstRepeat(const Execution& exec, std::vector<uint8_t>* seen) {
  ActivityId repeat = -1;
  size_t marked = 0;
  for (const ActivityInstance& inst : exec.instances()) {
    uint8_t& flag = (*seen)[static_cast<size_t>(inst.activity)];
    if (flag != 0) {
      repeat = inst.activity;
      break;
    }
    flag = 1;
    ++marked;
  }
  for (size_t i = 0; i < marked; ++i) {
    (*seen)[static_cast<size_t>(exec.instances()[i].activity)] = 0;
  }
  return repeat;
}

Status ValidateNoRepeats(const Execution& exec,
                         const ActivityDictionary& dict,
                         std::vector<uint8_t>* seen) {
  const ActivityId repeat = FirstRepeat(exec, seen);
  if (repeat < 0) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "execution '%s' repeats activity '%s'; Algorithm 2 assumes an "
      "acyclic process (use CyclicMiner)",
      exec.name().c_str(), dict.Name(repeat).c_str()));
}

Result<DirectedGraph> ReduceActivitySets(const DirectedGraph& dag,
                                         const IdSetTable& sets,
                                         ThreadPool* pool, size_t chunk_size,
                                         RunBudget* budget,
                                         DegradationInfo* degradation) {
  // hits: executions whose set was already in the table; misses: the
  // distinct sets, each reduced once below.
  static obs::Counter* hits =
      obs::MetricsRegistry::Get().GetCounter("general_dag.memo_hits");
  static obs::Counter* misses =
      obs::MetricsRegistry::Get().GetCounter("general_dag.memo_misses");
  hits->Add(sets.inserted() - static_cast<int64_t>(sets.size()));
  misses->Add(static_cast<int64_t>(sets.size()));

  const int threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t num_chunks = PlanChunks(sets.size(), threads, chunk_size);
  std::vector<std::unordered_set<uint64_t>> chunk_marked(num_chunks);
  std::vector<Status> chunk_status(num_chunks);
  std::vector<uint8_t> chunk_aborted(num_chunks, 0);
  auto run_chunk = [&](size_t c) {
    PROCMINE_SPAN("general_dag.reduce_shard");
    // Per-chunk reducer: its arena scratch is recycled across every set in
    // the chunk, so the steady-state loop performs no heap allocation.
    InducedReducer reducer(dag);
    std::vector<NodeId> present;
    std::vector<Edge> kept;
    const size_t begin = sets.size() * c / num_chunks;
    const size_t end = sets.size() * (c + 1) / num_chunks;
    for (size_t i = begin; i < end; ++i) {
      // A budget probe reads the clock (and possibly /proc), so amortize
      // it; the sticky exhausted flag stops every chunk within one stride.
      if (budget != nullptr && (i - begin) % 1024 == 0 &&
          budget->Check() != BudgetResource::kNone) {
        chunk_aborted[c] = 1;
        return;
      }
      present.assign(sets[i].begin(), sets[i].end());
      chunk_status[c] = reducer.Reduce(present, &kept);
      if (!chunk_status[c].ok()) return;
      for (const Edge& edge : kept) {
        chunk_marked[c].insert(PackEdge(edge.from, edge.to));
      }
    }
  };
  if (pool != nullptr && num_chunks > 1) {
    pool->ParallelForChunked(num_chunks, run_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }
  for (const Status& st : chunk_status) {
    if (!st.ok()) return st;  // first failure by chunk order: deterministic
  }
  for (uint8_t aborted : chunk_aborted) {
    if (aborted != 0) {
      BudgetCut(budget, degradation, "general_dag.reduce", kReduceDropped);
      return dag;
    }
  }
  std::unordered_set<uint64_t> marked = std::move(chunk_marked[0]);
  for (size_t c = 1; c < num_chunks; ++c) {
    marked.insert(chunk_marked[c].begin(), chunk_marked[c].end());
  }
  static obs::Counter* kept_edges = obs::MetricsRegistry::Get().GetCounter(
      "general_dag.reduction_edges_marked");
  kept_edges->Add(static_cast<int64_t>(marked.size()));
  PROCMINE_LOG(Debug) << "reduction kept " << marked.size() << " of "
                      << dag.num_edges() << " DAG edges (" << sets.size()
                      << " activity sets, " << threads << " threads)";
  DirectedGraph result(dag.num_nodes());
  for (uint64_t key : marked) {
    Edge e = UnpackEdge(key);
    result.AddEdge(e.from, e.to);
  }
  return result;
}

}  // namespace mine_internal
}  // namespace procmine
