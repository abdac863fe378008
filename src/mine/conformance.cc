#include "mine/conformance.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

namespace {
// Instance index (start-time order) of activity `a`'s first occurrence.
int64_t FirstInstanceOf(const Execution& exec, NodeId a) {
  for (size_t i = 0; i < exec.size(); ++i) {
    if (exec[i].activity == a) return static_cast<int64_t>(i);
  }
  return -1;
}
}  // namespace

ConformanceChecker::ConformanceChecker(const ProcessGraph* graph)
    : graph_(graph) {
  PROCMINE_CHECK(graph_ != nullptr);
  reach_ = ReachabilityMatrix(graph_->graph());
  // Locate the initiating and terminating activities, ignoring isolated
  // vertices: a graph mined from a log whose dictionary lists activities
  // that never occurred carries them as degree-0 vertices, and the paper's
  // V contains only activities instantiated from the log.
  const DirectedGraph& g = graph_->graph();
  std::vector<NodeId> sources, sinks;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    bool isolated = g.InDegree(v) == 0 && g.OutDegree(v) == 0;
    if (isolated) continue;
    if (g.InDegree(v) == 0) sources.push_back(v);
    if (g.OutDegree(v) == 0) sinks.push_back(v);
  }
  if (sources.size() == 1) {
    source_ = sources[0];
  } else {
    endpoint_error_ = Status::FailedPrecondition(StrFormat(
        "expected exactly one source, found %zu", sources.size()));
  }
  if (sinks.size() == 1) {
    sink_ = sinks[0];
  } else if (endpoint_error_.ok()) {
    endpoint_error_ = Status::FailedPrecondition(
        StrFormat("expected exactly one sink, found %zu", sinks.size()));
  }
}

Status ConformanceChecker::CheckExecution(
    const Execution& exec, int64_t* first_violation_event) const {
  // Structural failures (empty execution, ambiguous endpoints) have no
  // single violating event; flag them as -1 up front so every early return
  // below only has to set the index when one exists.
  if (first_violation_event != nullptr) *first_violation_event = -1;
  auto violating_event = [first_violation_event](int64_t index) {
    if (first_violation_event != nullptr) *first_violation_event = index;
  };
  if (exec.empty()) return Status::InvalidArgument("execution is empty");
  const DirectedGraph& g = graph_->graph();
  const NodeId n = g.num_nodes();

  for (size_t i = 0; i < exec.size(); ++i) {
    const ActivityInstance& inst = exec[i];
    if (inst.activity < 0 || inst.activity >= n) {
      violating_event(static_cast<int64_t>(i));
      return Status::FailedPrecondition(StrFormat(
          "activity id %d is not a vertex of the graph", inst.activity));
    }
  }

  PROCMINE_RETURN_NOT_OK(endpoint_error_);
  NodeId source = source_;
  NodeId sink = sink_;
  if (exec[0].activity != source) {
    violating_event(0);
    return Status::FailedPrecondition(StrFormat(
        "first activity '%s' is not the initiating activity '%s'",
        graph_->name(exec[0].activity).c_str(),
        graph_->name(source).c_str()));
  }
  if (exec[exec.size() - 1].activity != sink) {
    violating_event(static_cast<int64_t>(exec.size()) - 1);
    return Status::FailedPrecondition(StrFormat(
        "last activity '%s' is not the terminating activity '%s'",
        graph_->name(exec[exec.size() - 1].activity).c_str(),
        graph_->name(sink).c_str()));
  }

  // Build the induced subgraph G' of Definition 6: vertices of R, edges of G
  // that R's ordering realizes — some instance of `from` terminates before
  // some instance of `to` starts, i.e. min_end(from) < max_start(to). The
  // extents (first_start, last_end) additionally feed the
  // dependency-violation test, where a dependency u -> v is only violated if
  // v lies WHOLLY before u.
  std::vector<bool> present(static_cast<size_t>(n), false);
  std::vector<int64_t> first_start(static_cast<size_t>(n), 0);
  std::vector<int64_t> last_end(static_cast<size_t>(n), 0);
  std::vector<int64_t> min_end(static_cast<size_t>(n), 0);
  std::vector<int64_t> max_start(static_cast<size_t>(n), 0);
  std::vector<NodeId> vertices;
  for (const ActivityInstance& inst : exec.instances()) {
    size_t a = static_cast<size_t>(inst.activity);
    if (!present[a]) {
      present[a] = true;
      first_start[a] = inst.start;
      last_end[a] = inst.end;
      min_end[a] = inst.end;
      max_start[a] = inst.start;
      vertices.push_back(inst.activity);
    } else {
      first_start[a] = std::min(first_start[a], inst.start);
      last_end[a] = std::max(last_end[a], inst.end);
      min_end[a] = std::min(min_end[a], inst.end);
      max_start[a] = std::max(max_start[a], inst.start);
    }
  }
  DirectedGraph induced(n);
  for (NodeId u : vertices) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (v != u && present[static_cast<size_t>(v)] &&
          min_end[static_cast<size_t>(u)] <
              max_start[static_cast<size_t>(v)]) {
        induced.AddEdge(u, v);
      }
    }
  }

  // Connectivity and reachability within G' (checked over V' only).
  std::vector<bool> reached(static_cast<size_t>(n), false);
  std::vector<NodeId> stack = {source};
  reached[static_cast<size_t>(source)] = true;
  size_t reach_count = 1;
  while (!stack.empty()) {
    NodeId v = stack.back();
    stack.pop_back();
    for (NodeId u : induced.OutNeighbors(v)) {
      if (!reached[static_cast<size_t>(u)]) {
        reached[static_cast<size_t>(u)] = true;
        ++reach_count;
        stack.push_back(u);
      }
    }
  }
  if (reach_count != vertices.size()) {
    for (NodeId v : vertices) {
      if (!reached[static_cast<size_t>(v)]) {
        violating_event(FirstInstanceOf(exec, v));
        return Status::FailedPrecondition(StrFormat(
            "activity '%s' is not reachable from the initiating activity in "
            "the induced subgraph",
            graph_->name(v).c_str()));
      }
    }
  }
  // Forward reachability from the single source covering all of V' implies
  // weak connectivity of G', so no separate connectivity test is needed.

  // Dependency violations: a path u ->+ v with v wholly before u in R.
  // Paths are taken within the subgraph induced by the PRESENT activities
  // (all edges of G among V', not only realized ones): Definition 6 is
  // stated to be equivalent to "R can be a successful execution of P for
  // suitably chosen outputs and edge functions", and a dependency routed
  // through an activity that never ran imposes no ordering on R.
  // The subgraph is built over compact ids [0, p) so the per-execution
  // reachability matrix is p x p in the execution's activity count — the
  // seed rebuilt a full n-vertex graph and n x n matrix for every execution.
  const size_t p = vertices.size();
  std::vector<int32_t> compact(static_cast<size_t>(n), -1);
  for (size_t i = 0; i < p; ++i) {
    compact[static_cast<size_t>(vertices[i])] = static_cast<int32_t>(i);
  }
  DirectedGraph present_subgraph(static_cast<NodeId>(p));
  for (size_t i = 0; i < p; ++i) {
    for (NodeId v : g.OutNeighbors(vertices[i])) {
      const int32_t cv = compact[static_cast<size_t>(v)];
      if (cv >= 0) present_subgraph.AddEdge(static_cast<NodeId>(i), cv);
    }
  }
  BitMatrix reach = ReachabilityMatrix(present_subgraph);
  for (size_t i = 0; i < p; ++i) {
    for (size_t j = 0; j < p; ++j) {
      if (i == j) continue;
      const NodeId u = vertices[i];
      const NodeId v = vertices[j];
      if (reach.Test(i, j) &&
          last_end[static_cast<size_t>(v)] <
              first_start[static_cast<size_t>(u)]) {
        // The first event proving the violation is v's earliest instance:
        // it already ran even though u (which v depends on) had not started.
        violating_event(FirstInstanceOf(exec, v));
        return Status::FailedPrecondition(StrFormat(
            "ordering violates the dependency '%s' -> '%s'",
            graph_->name(u).c_str(), graph_->name(v).c_str()));
      }
    }
  }
  return Status::OK();
}

ConformanceReport ConformanceChecker::CheckLog(
    const EventLog& log, bool record_verdicts,
    const Relations* precomputed) const {
  PROCMINE_SPAN("conformance.check_log");
  ConformanceReport report;
  const NodeId n = std::min<NodeId>(log.num_activities(),
                                    graph_->num_activities());

  // Reuse the caller's relations (and the followings closure inside them)
  // when offered; otherwise compute our own copy for this log.
  Relations computed;
  if (precomputed == nullptr) computed = Relations::Compute(log);
  const Relations& relations = precomputed != nullptr ? *precomputed : computed;
  for (ActivityId a = 0; a < n; ++a) {
    for (ActivityId b = 0; b < n; ++b) {
      if (a == b) continue;
      bool path = reach_.Test(static_cast<size_t>(a), static_cast<size_t>(b));
      if (relations.DependsOn(b, a) && !path) {
        report.dependency_complete = false;
        report.missing_dependencies.push_back(Edge{a, b});
      }
      if (relations.Independent(a, b) && path) {
        report.irredundant = false;
        report.spurious_paths.push_back(Edge{a, b});
      }
    }
  }

  if (record_verdicts) report.verdicts.reserve(log.num_executions());
  for (const Execution& exec : log.executions()) {
    int64_t first_violation_event = -1;
    Status st = CheckExecution(exec, &first_violation_event);
    if (!st.ok()) {
      report.execution_complete = false;
      report.inconsistent_executions.emplace_back(exec.name(),
                                                  std::string(st.message()));
    }
    if (record_verdicts) {
      report.verdicts.push_back({exec.name(), st.ok(),
                                 std::string(st.ok() ? "" : st.message()),
                                 first_violation_event});
    }
  }
  static obs::Counter* checked = obs::MetricsRegistry::Get().GetCounter(
      "conformance.executions_checked");
  checked->Add(static_cast<int64_t>(log.num_executions()));
  static obs::Counter* inconsistent = obs::MetricsRegistry::Get().GetCounter(
      "conformance.inconsistent_executions");
  inconsistent->Add(
      static_cast<int64_t>(report.inconsistent_executions.size()));
  return report;
}

std::string ConformanceReport::Summary(const ActivityDictionary& dict) const {
  std::ostringstream out;
  out << "conformal: " << (conformal() ? "yes" : "no") << "\n";
  out << "dependency completeness: "
      << (dependency_complete ? "ok" : "VIOLATED") << "\n";
  for (const Edge& e : missing_dependencies) {
    out << "  missing path " << dict.Name(e.from) << " -> " << dict.Name(e.to)
        << "\n";
  }
  out << "irredundancy: " << (irredundant ? "ok" : "VIOLATED") << "\n";
  for (const Edge& e : spurious_paths) {
    out << "  spurious path " << dict.Name(e.from) << " -> "
        << dict.Name(e.to) << " between independent activities\n";
  }
  out << "execution completeness: "
      << (execution_complete ? "ok" : "VIOLATED") << "\n";
  for (const auto& [name, reason] : inconsistent_executions) {
    out << "  " << name << ": " << reason << "\n";
  }
  return out.str();
}

}  // namespace procmine
