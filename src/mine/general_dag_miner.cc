#include "mine/general_dag_miner.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bit_matrix.h"
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

  // Once per reduce: rank the DAG topologically and store its adjacency as
  // bit rows in rank space, so every edge points to a higher rank. The
  // subgraph a set induces is then ordered by sorting its members' ranks.
  PROCMINE_ASSIGN_OR_RETURN(std::vector<NodeId> order, TopologicalSort(dag));
  const size_t n = static_cast<size_t>(dag.num_nodes());
  std::vector<int32_t> rank(n);
  for (size_t r = 0; r < n; ++r) {
    rank[static_cast<size_t>(order[r])] = static_cast<int32_t>(r);
  }
  BitMatrix adjacency(n, n);
  for (NodeId v = 0; v < dag.num_nodes(); ++v) {
    for (NodeId u : dag.OutNeighbors(v)) {
      adjacency.Set(static_cast<size_t>(rank[static_cast<size_t>(v)]),
                    static_cast<size_t>(rank[static_cast<size_t>(u)]));
    }
  }
  // Kept edges in host ids, shared by every chunk. A bit is only ever set,
  // and it is read before the atomic OR, so once the few distinct kept
  // edges are in, chunks only load.
  BitMatrix kept(n, n);
  auto keep = [&kept](NodeId from, NodeId to) {
    std::atomic_ref<uint64_t> word(
        kept.RowWords(static_cast<size_t>(from))[static_cast<size_t>(to) >> 6]);
    const uint64_t bit = uint64_t{1} << (to & 63);
    if ((word.load(std::memory_order_relaxed) & bit) == 0) {
      word.fetch_or(bit, std::memory_order_relaxed);
    }
  };

  const int threads = pool == nullptr ? 1 : pool->num_threads();
  const size_t num_chunks = PlanChunks(sets.size(), threads, chunk_size);
  std::vector<uint8_t> chunk_aborted(num_chunks, 0);
  auto run_chunk = [&](size_t c) {
    PROCMINE_SPAN("general_dag.reduce_shard");
    std::vector<int32_t> ranks;  // one set's members, ascending by rank
    std::vector<uint64_t> desc;  // p rows of ceil(p/64) words
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
      ranks.clear();
      for (int32_t v : sets[i]) ranks.push_back(rank[static_cast<size_t>(v)]);
      std::sort(ranks.begin(), ranks.end());
      const size_t p = ranks.size();
      const size_t words = (p + 63) / 64;
      desc.assign(p * words, 0);
      // Algorithm 4 backwards over the members: desc row a collects every
      // member a reaches. Member a's successors b > a are visited in rank
      // order, and a successor reached through an earlier one is dropped;
      // no later successor can reach it, since edges climb in rank. So only
      // a kept successor's row is OR-ed in, and it already holds the rows
      // of the successors it reaches.
      for (size_t a = p; a-- > 0;) {
        uint64_t* row = desc.data() + a * words;
        const size_t ra = static_cast<size_t>(ranks[a]);
        const uint64_t* succ = adjacency.RowWords(ra);
        for (size_t b = a + 1; b < p; ++b) {
          const size_t rb = static_cast<size_t>(ranks[b]);
          if (((succ[rb >> 6] >> (rb & 63)) & 1) == 0) continue;
          if ((row[b >> 6] >> (b & 63)) & 1) continue;
          keep(order[ra], order[rb]);
          // desc row b holds only members above b, so words below b's
          // are zero.
          bits::Or(row + (b >> 6), desc.data() + b * words + (b >> 6),
                   words - (b >> 6));
          row[b >> 6] |= uint64_t{1} << (b & 63);
        }
      }
    }
  };
  if (pool != nullptr && num_chunks > 1) {
    pool->ParallelForChunked(num_chunks, run_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  }
  for (uint8_t aborted : chunk_aborted) {
    if (aborted != 0) {
      BudgetCut(budget, degradation, "general_dag.reduce", kReduceDropped);
      return dag;
    }
  }
  static obs::Counter* kept_edges = obs::MetricsRegistry::Get().GetCounter(
      "general_dag.reduction_edges_marked");
  const size_t num_kept = kept.Count();
  kept_edges->Add(static_cast<int64_t>(num_kept));
  PROCMINE_LOG(Debug) << "reduction kept " << num_kept << " of "
                      << dag.num_edges() << " DAG edges (" << sets.size()
                      << " activity sets, " << threads << " threads)";
  DirectedGraph result(dag.num_nodes());
  for (NodeId from = 0; from < dag.num_nodes(); ++from) {
    const uint64_t* row = kept.RowWords(static_cast<size_t>(from));
    for (size_t w = 0; w < kept.words_per_row(); ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        const size_t to = w * 64 + static_cast<size_t>(std::countr_zero(word));
        result.AddEdge(from, static_cast<NodeId>(to));
      }
    }
  }
  return result;
}

}  // namespace mine_internal
}  // namespace procmine
