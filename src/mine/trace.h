// Mining traces: a fully-instrumented run of Algorithm 2 that records what
// every step did — the paper explains its algorithms through exactly such
// traces (Example 6 / Figure 3, Example 7 / Figure 4), and a practitioner
// debugging a surprising model needs the same visibility ("why is this edge
// here?" / "why did this edge disappear?").

#ifndef PROCMINE_MINE_TRACE_H_
#define PROCMINE_MINE_TRACE_H_

#include <string>
#include <vector>

#include "log/event_log.h"
#include "mine/edge_collector.h"
#include "mine/miner.h"
#include "util/result.h"
#include "workflow/process_graph.h"

namespace procmine {

/// Everything Algorithm 2 did, step by step.
struct MiningTrace {
  /// Step 2: the raw precedence graph and per-edge execution counts.
  DirectedGraph after_step2;
  EdgeCounts counts;
  /// Edges dropped by the noise threshold (empty when threshold is 1).
  std::vector<Edge> below_threshold;
  /// Step 3: both-direction pairs — each pair reported once as (min, max).
  std::vector<Edge> two_cycle_pairs;
  /// Step 4: activity groups forming non-trivial strongly connected
  /// components (mutually independent by Definition 4).
  std::vector<std::vector<ActivityId>> scc_groups;
  /// The dependency graph after step 4.
  DirectedGraph dependency_graph;
  /// Step 5: per execution, the edges its induced transitive reduction
  /// marked as required.
  struct ExecutionMarks {
    std::string execution;
    std::vector<Edge> marked;
  };
  std::vector<ExecutionMarks> marks;
  /// Step 6: edges of the dependency graph no execution needed.
  std::vector<Edge> removed_unmarked;
  /// The final conformal graph.
  ProcessGraph result;

  /// The paper-style narration of the whole run.
  std::string Narrate(const ActivityDictionary& dict) const;

  /// Why-explanations for a single edge of the result (or its absence).
  std::string ExplainEdge(const ActivityDictionary& dict, ActivityId from,
                          ActivityId to) const;
};

/// Runs Algorithm 2 with instrumentation. Same preconditions and output
/// graph as ProcessMiner::Mine with MinerAlgorithm::kGeneralDag and the same
/// noise threshold, the one option it reads.
Result<MiningTrace> TraceGeneralDagMining(const EventLog& log,
                                          const MinerOptions& options = {});

}  // namespace procmine

#endif  // PROCMINE_MINE_TRACE_H_
