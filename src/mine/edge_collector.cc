#include "mine/edge_collector.h"

#include <algorithm>
#include <bit>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace procmine {

namespace {

// One shard's precedence pairs: an open-addressing table (linear probing,
// load at most one half) of PackEdge keys and their evidence. Witnesses
// are 64-bit execution indices, so the last witness serves as the
// once-per-execution stamp without ever wrapping.
class PairTable {
 public:
  /// Records that execution `e` exhibits `key`; a repeat within the same
  /// execution finds its own stamp. A shard's executions arrive in order.
  void Witness(uint64_t key, int64_t e) {
    EdgeEvidence& cell = Find(key).cell;
    if (cell.last_witness == e) return;
    if (cell.support++ == 0) cell.first_witness = e;
    cell.last_witness = e;
  }

  /// Folds in a table of disjoint executions (sum/min/max).
  void Merge(const PairTable& other) {
    for (const Slot& in : other.slots_) {
      if (in.key != kEmpty) Find(in.key).cell.Merge(in.cell);
    }
  }

  size_t size() const { return size_; }

  /// Calls fn(key, evidence) for every pair in the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) fn(slot.key, slot.cell);
    }
  }

 private:
  // PackEdge keys have both halves below 2^31, so all-ones is never a key.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  struct Slot {
    uint64_t key = kEmpty;
    EdgeEvidence cell;
  };

  // The slot of `key`, claimed with empty evidence when absent.
  Slot& Find(uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t pos = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (slots_[pos].key != key && slots_[pos].key != kEmpty) {
      pos = (pos + 1) & mask;
    }
    Slot& slot = slots_[pos];
    if (slot.key == kEmpty) {
      slot.key = key;
      ++size_;
    }
    return slot;
  }

  void Grow() {
    std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max<size_t>(64, 2 * slots_.size())));
    shift_ = 64 - std::countr_zero(slots_.size());
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.key != kEmpty) Find(slot.key).cell = slot.cell;
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

// Counts the precedence pairs of executions [span.begin, span.end) into
// `pairs` and, when `sets` is non-null, adds each execution's sorted
// activity set to `sets`, in one pass over the executions.
void CollectSpan(const EventLog& log, ExecutionSpan span, PairTable* pairs,
                 IdSetTable* sets) {
  PROCMINE_SPAN("edges.collect_shard");
  static obs::Counter* executions = obs::MetricsRegistry::Get().GetCounter(
      "mine.executions_scanned");
  static obs::Histogram* exec_size = obs::MetricsRegistry::Get().GetHistogram(
      "mine.execution_instances", {4, 16, 64, 256, 1024, 4096});
  executions->Add(static_cast<int64_t>(span.end - span.begin));
  std::vector<NodeId> present;
  for (size_t e = span.begin; e < span.end; ++e) {
    const Execution& exec = log.execution(e);
    exec_size->Record(static_cast<int64_t>(exec.size()));
    const int64_t stamp = static_cast<int64_t>(e);
    ForEachPrecedencePair(
        exec, [pairs, stamp](uint64_t key) { pairs->Witness(key, stamp); });
    if (sets == nullptr) continue;
    present.clear();
    for (const ActivityInstance& inst : exec.instances()) {
      present.push_back(inst.activity);
    }
    std::sort(present.begin(), present.end());
    sets->Insert(present);
  }
}

}  // namespace

EdgeCounts CollectPrecedenceEdges(const EventLog& log) {
  return CollectPrecedenceEdges(log, nullptr);
}

EdgeCounts CollectPrecedenceEdges(const EventLog& log, ThreadPool* pool,
                                  ProvenanceRecorder* provenance,
                                  size_t chunk_size, IdSetTable* sets) {
  PROCMINE_SPAN("edges.collect");
  // Without a pool the whole log is one chunk. With one, each chunk fills
  // its own tables (chunk 0 writes `sets` directly), merged in chunk order.
  // Every execution counts in exactly one chunk, so the totals equal one
  // sequential scan for any partition.
  const size_t m = log.num_executions();
  const std::vector<ExecutionSpan> spans =
      pool == nullptr
          ? std::vector<ExecutionSpan>{{0, m}}
          : log.Shards(PlanChunks(m, pool->num_threads(), chunk_size));
  if (spans.empty()) return EdgeCounts();
  std::vector<PairTable> shard_pairs(spans.size());
  std::vector<IdSetTable> shard_sets(sets != nullptr ? spans.size() : 0);
  auto collect = [&](size_t s) {
    CollectSpan(log, spans[s], &shard_pairs[s],
                sets == nullptr || s == 0 ? sets : &shard_sets[s]);
  };
  if (pool == nullptr) {
    collect(0);
  } else {
    pool->ParallelForChunked(spans.size(), collect);
  }
  PairTable& merged = shard_pairs[0];
  for (size_t s = 1; s < spans.size(); ++s) {
    merged.Merge(shard_pairs[s]);
    if (sets != nullptr) sets->Merge(shard_sets[s]);
  }

  EdgeCounts counts;
  counts.reserve(merged.size());
  EdgeEvidenceMap evidence;
  if (provenance != nullptr) evidence.reserve(merged.size());
  merged.ForEach([&](uint64_t key, const EdgeEvidence& cell) {
    counts.emplace(key, cell.support);
    if (provenance != nullptr) evidence.emplace(key, cell);
  });
  if (provenance != nullptr) provenance->SetEvidence(std::move(evidence));
  static obs::Counter* collected =
      obs::MetricsRegistry::Get().GetCounter("mine.edges_collected");
  collected->Add(static_cast<int64_t>(counts.size()));
  PROCMINE_LOG(Debug) << "collected " << counts.size()
                      << " distinct precedence edges from "
                      << log.num_executions() << " executions across "
                      << spans.size() << " shards";
  return counts;
}

DirectedGraph BuildPrecedenceGraph(const EdgeCounts& counts, NodeId num_nodes,
                                   int64_t threshold,
                                   ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.build_graph");
  DirectedGraph g(num_nodes);
  int64_t pruned = 0;
  for (const auto& [key, count] : counts) {
    if (count >= threshold) {
      Edge e = UnpackEdge(key);
      g.AddEdge(e.from, e.to);
    } else {
      ++pruned;
      if (provenance != nullptr) {
        Edge e = UnpackEdge(key);
        provenance->MarkDropped(e.from, e.to, DropReason::kBelowThreshold);
      }
    }
  }
  static obs::Counter* below = obs::MetricsRegistry::Get().GetCounter(
      "mine.edges_pruned_below_threshold");
  below->Add(pruned);
  return g;
}

void RemoveTwoCycles(DirectedGraph* g, ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.remove_two_cycles");
  std::vector<Edge> to_remove;
  for (const Edge& e : g->Edges()) {
    if (e.from < e.to && g->HasEdge(e.to, e.from)) {
      to_remove.push_back(e);
      to_remove.push_back(Edge{e.to, e.from});
    }
    if (e.from == e.to) to_remove.push_back(e);  // self loop: trivial cycle
  }
  for (const Edge& e : to_remove) {
    g->RemoveEdge(e.from, e.to);
    if (provenance != nullptr) {
      provenance->MarkDropped(e.from, e.to, DropReason::kTwoCycle);
    }
  }
  static obs::Counter* removed = obs::MetricsRegistry::Get().GetCounter(
      "mine.two_cycle_edges_removed");
  removed->Add(static_cast<int64_t>(to_remove.size()));
}

void RemoveIntraSccEdges(DirectedGraph* g, ProvenanceRecorder* provenance) {
  PROCMINE_SPAN("edges.remove_intra_scc");
  SccResult scc = StronglyConnectedComponents(*g);
  std::vector<Edge> to_remove;
  for (const Edge& e : g->Edges()) {
    if (scc.component[static_cast<size_t>(e.from)] ==
        scc.component[static_cast<size_t>(e.to)]) {
      to_remove.push_back(e);
    }
  }
  for (const Edge& e : to_remove) {
    g->RemoveEdge(e.from, e.to);
    if (provenance != nullptr) {
      provenance->MarkDropped(e.from, e.to, DropReason::kIntraScc);
    }
  }
  // A component is "merged" when it collapses >= 2 mutually-following
  // activities (NarrateMining recovers the same sets).
  std::vector<int64_t> members(static_cast<size_t>(scc.num_components), 0);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    ++members[static_cast<size_t>(scc.component[static_cast<size_t>(v)])];
  }
  int64_t merged = 0;
  for (int64_t size : members) {
    if (size > 1) ++merged;
  }
  static obs::Counter* sccs =
      obs::MetricsRegistry::Get().GetCounter("mine.sccs_merged");
  sccs->Add(merged);
  static obs::Counter* removed = obs::MetricsRegistry::Get().GetCounter(
      "mine.intra_scc_edges_removed");
  removed->Add(static_cast<int64_t>(to_remove.size()));
}

}  // namespace procmine
