#include "mine/relations.h"

#include <algorithm>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace procmine {

namespace {

// Per-chunk accumulator for the map phase: one n x n bit matrix for
// co-occurrence and one for "b starts after a terminates" violations.
// Matrices from different chunks merge by whole-matrix OR — one word loop,
// order-independent — so the result is identical for every thread count
// and chunk size.
struct RelationShard {
  BitMatrix cooccur;
  BitMatrix violated;
};

void ComputeShard(const EventLog& log, ExecutionSpan span, size_t n,
                  RelationShard* shard) {
  PROCMINE_SPAN("relations.compute_shard");
  static obs::Counter* executions = obs::MetricsRegistry::Get().GetCounter(
      "relations.executions_scanned");
  executions->Add(static_cast<int64_t>(span.end - span.begin));
  shard->cooccur = BitMatrix(n, n);
  shard->violated = BitMatrix(n, n);
  // Per execution: extent (first start, last end) of each present activity.
  std::vector<int64_t> first_start(n);
  std::vector<int64_t> last_end(n);
  std::vector<bool> present(n, false);
  std::vector<size_t> touched;
  for (size_t e = span.begin; e < span.end; ++e) {
    const Execution& exec = log.execution(e);
    touched.clear();
    for (const ActivityInstance& inst : exec.instances()) {
      size_t a = static_cast<size_t>(inst.activity);
      if (!present[a]) {
        present[a] = true;
        touched.push_back(a);
        first_start[a] = inst.start;
        last_end[a] = inst.end;
      } else {
        first_start[a] = std::min(first_start[a], inst.start);
        last_end[a] = std::max(last_end[a], inst.end);
      }
    }
    // Only the activities present in this execution can gain bits, so the
    // pair loop is O(p^2) in the execution's activity count, not O(n^2).
    for (size_t a : touched) {
      for (size_t b : touched) {
        if (a == b) continue;
        shard->cooccur.Set(a, b);
        // "B starts after A terminates" must hold in each co-occurrence for
        // b to (directly) follow a.
        if (!(first_start[b] > last_end[a])) shard->violated.Set(a, b);
      }
    }
    for (size_t a : touched) present[a] = false;
  }
}

}  // namespace

Relations Relations::Compute(const EventLog& log) {
  return Compute(log, nullptr);
}

Relations Relations::Compute(const EventLog& log, ThreadPool* pool,
                             size_t chunk_size) {
  PROCMINE_SPAN("relations.compute");
  const NodeId n = log.num_activities();
  const size_t un = static_cast<size_t>(n);

  // Map: one accumulator per chunk, chunks claimed by idle workers. The
  // chunk partition is a pure function of (log, threads, chunk_size), never
  // of runtime scheduling.
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  std::vector<ExecutionSpan> spans =
      log.Shards(PlanChunks(log.num_executions(), threads, chunk_size));
  if (spans.empty()) spans.push_back(ExecutionSpan{0, 0});
  std::vector<RelationShard> shards(spans.size());
  if (pool != nullptr && spans.size() > 1) {
    pool->ParallelForChunked(spans.size(), [&](size_t c) {
      ComputeShard(log, spans[c], un, &shards[c]);
    });
  } else {
    for (size_t s = 0; s < spans.size(); ++s) {
      ComputeShard(log, spans[s], un, &shards[s]);
    }
  }

  // Reduce: OR the chunk matrices together (one word loop per matrix),
  // then keep = cooccur AND NOT violated.
  PROCMINE_SPAN("relations.reduce");
  Relations rel;
  rel.followings_ = DirectedGraph(n);
  BitMatrix keep = std::move(shards[0].cooccur);
  BitMatrix violated = std::move(shards[0].violated);
  for (size_t s = 1; s < shards.size(); ++s) {
    keep.OrWith(shards[s].cooccur);
    violated.OrWith(shards[s].violated);
  }
  keep.AndNotWith(violated);
  for (size_t a = 0; a < un; ++a) {
    for (size_t b = 0; b < un; ++b) {
      if (keep.Test(a, b)) {
        rel.followings_.AddEdge(static_cast<NodeId>(a),
                                static_cast<NodeId>(b));  // b follows a
      }
    }
  }
  rel.follows_closure_ = ReachabilityMatrix(rel.followings_);
  static obs::Counter* followings = obs::MetricsRegistry::Get().GetCounter(
      "relations.followings_edges");
  followings->Add(rel.followings_.num_edges());
  return rel;
}

std::vector<Edge> Relations::AllDependencies() const {
  std::vector<Edge> deps;
  const NodeId n = num_activities();
  for (ActivityId a = 0; a < n; ++a) {
    for (ActivityId b = 0; b < n; ++b) {
      if (a != b && DependsOn(b, a)) deps.push_back(Edge{a, b});
    }
  }
  std::sort(deps.begin(), deps.end());
  return deps;
}

}  // namespace procmine
