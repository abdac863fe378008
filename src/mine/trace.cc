#include "mine/trace.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "util/strings.h"

namespace procmine {

Result<MiningTrace> TraceGeneralDagMining(const EventLog& log,
                                          const MinerOptions& options) {
  const NodeId n = log.num_activities();
  if (n == 0 || log.num_executions() == 0) {
    return Status::InvalidArgument("log is empty");
  }
  for (const Execution& exec : log.executions()) {
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (const ActivityInstance& inst : exec.instances()) {
      if (seen[static_cast<size_t>(inst.activity)]) {
        return Status::InvalidArgument(
            "execution repeats an activity; traces cover the acyclic "
            "setting");
      }
      seen[static_cast<size_t>(inst.activity)] = true;
    }
  }

  MiningTrace trace;
  // Step 2.
  trace.counts = CollectPrecedenceEdges(log);
  trace.after_step2 = BuildPrecedenceGraph(trace.counts, n, /*threshold=*/1);
  DirectedGraph g =
      BuildPrecedenceGraph(trace.counts, n, options.noise_threshold);
  for (const Edge& e : trace.after_step2.Edges()) {
    if (!g.HasEdge(e.from, e.to)) trace.below_threshold.push_back(e);
  }

  // Step 3.
  for (const Edge& e : g.Edges()) {
    if (e.from < e.to && g.HasEdge(e.to, e.from)) {
      trace.two_cycle_pairs.push_back(e);
    }
  }
  RemoveTwoCycles(&g);

  // Step 4.
  SccResult scc = StronglyConnectedComponents(g);
  std::vector<std::vector<ActivityId>> members(
      static_cast<size_t>(scc.num_components));
  for (NodeId v = 0; v < n; ++v) {
    members[static_cast<size_t>(scc.component[static_cast<size_t>(v)])]
        .push_back(v);
  }
  for (auto& group : members) {
    if (group.size() > 1) trace.scc_groups.push_back(group);
  }
  RemoveIntraSccEdges(&g);
  trace.dependency_graph = g;

  // Steps 5-6.
  std::unordered_set<uint64_t> marked;
  for (const Execution& exec : log.executions()) {
    DirectedGraph induced = InducedSubgraph(g, exec.Sequence());
    PROCMINE_ASSIGN_OR_RETURN(DirectedGraph reduced,
                              TransitiveReduction(induced));
    MiningTrace::ExecutionMarks entry;
    entry.execution = exec.name();
    entry.marked = reduced.Edges();
    for (const Edge& e : entry.marked) marked.insert(PackEdge(e.from, e.to));
    trace.marks.push_back(std::move(entry));
  }
  DirectedGraph result(n);
  for (const Edge& e : g.Edges()) {
    if (marked.count(PackEdge(e.from, e.to)) > 0) {
      result.AddEdge(e.from, e.to);
    } else {
      trace.removed_unmarked.push_back(e);
    }
  }
  trace.result = ProcessGraph(std::move(result), log.dictionary().names());
  return trace;
}

namespace {

std::string EdgeName(const ActivityDictionary& dict, const Edge& e) {
  return dict.Name(e.from) + " -> " + dict.Name(e.to);
}

}  // namespace

std::string MiningTrace::Narrate(const ActivityDictionary& dict) const {
  std::ostringstream out;
  out << "step 2: collected " << after_step2.num_edges()
      << " precedence edges over " << marks.size() << " executions\n";
  if (!below_threshold.empty()) {
    out << "noise threshold dropped " << below_threshold.size()
        << " rare edges:";
    for (const Edge& e : below_threshold) out << " " << EdgeName(dict, e);
    out << "\n";
  }
  out << "step 3: " << two_cycle_pairs.size()
      << " activity pairs observed in both orders (independent):";
  for (const Edge& e : two_cycle_pairs) {
    out << " {" << dict.Name(e.from) << ", " << dict.Name(e.to) << "}";
  }
  out << "\n";
  out << "step 4: " << scc_groups.size()
      << " strongly connected components dissolved:";
  for (const auto& group : scc_groups) {
    out << " {";
    for (size_t i = 0; i < group.size(); ++i) {
      out << (i ? ", " : "") << dict.Name(group[i]);
    }
    out << "}";
  }
  out << "\n";
  out << "dependency graph: " << dependency_graph.num_edges() << " edges\n";
  out << "steps 5-6: per-execution transitive reductions kept "
      << result.graph().num_edges() << " edges, removed "
      << removed_unmarked.size() << ":";
  for (const Edge& e : removed_unmarked) out << " " << EdgeName(dict, e);
  out << "\n";
  return out.str();
}

std::string MiningTrace::ExplainEdge(const ActivityDictionary& dict,
                                     ActivityId from, ActivityId to) const {
  const std::string name = dict.Name(from) + " -> " + dict.Name(to);
  auto count_of = [&](ActivityId a, ActivityId b) -> int64_t {
    auto it = counts.find(PackEdge(a, b));
    return it == counts.end() ? 0 : it->second;
  };

  if (result.graph().HasEdge(from, to)) {
    // Which executions needed it?
    std::vector<std::string> witnesses;
    for (const ExecutionMarks& m : marks) {
      for (const Edge& e : m.marked) {
        if (e.from == from && e.to == to) {
          witnesses.push_back(m.execution);
          break;
        }
      }
    }
    std::string out = "edge " + name + " is in the model: observed in " +
                      std::to_string(count_of(from, to)) +
                      " executions, required by " +
                      std::to_string(witnesses.size()) +
                      " execution(s) incl.";
    for (size_t i = 0; i < witnesses.size() && i < 3; ++i) {
      out += " " + witnesses[i];
    }
    return out + "\n";
  }

  if (count_of(from, to) == 0) {
    return "edge " + name + " was never observed (" + dict.Name(to) +
           " never started after " + dict.Name(from) + " terminated)\n";
  }
  for (const Edge& e : below_threshold) {
    if (e.from == from && e.to == to) {
      return "edge " + name + " was dropped by the noise threshold (seen " +
             std::to_string(count_of(from, to)) + "x)\n";
    }
  }
  if (count_of(to, from) > 0) {
    return "edge " + name + " was dropped at step 3: seen " +
           std::to_string(count_of(from, to)) + "x, but the reverse order " +
           std::to_string(count_of(to, from)) +
           "x — the activities are independent\n";
  }
  for (const auto& group : scc_groups) {
    bool has_from = std::find(group.begin(), group.end(), from) != group.end();
    bool has_to = std::find(group.begin(), group.end(), to) != group.end();
    if (has_from && has_to) {
      return "edge " + name +
             " was dropped at step 4: both activities sit in one strongly "
             "connected component of followings (independent)\n";
    }
  }
  if (dependency_graph.HasEdge(from, to)) {
    return "edge " + name +
           " was dropped at step 6: no execution's transitive reduction "
           "needed it (a longer path covers the dependency everywhere it "
           "was observed)\n";
  }
  return "edge " + name + " was dropped by the noise threshold (seen " +
         std::to_string(count_of(from, to)) + "x)\n";
}

}  // namespace procmine
