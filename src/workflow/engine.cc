#include "workflow/engine.h"

#include <algorithm>
#include <deque>
#include <span>
#include <unordered_set>
#include <utility>

#include "util/strings.h"

namespace procmine {

Engine::Engine(const ProcessDefinition* definition, EngineOptions options)
    : def_(definition), options_(options) {
  PROCMINE_CHECK(def_ != nullptr);
}

namespace {

/// Draws an output vector per the activity's OutputSpec.
std::vector<int64_t> DrawOutputs(const OutputSpec& spec, Rng* rng) {
  std::vector<int64_t> out;
  out.reserve(spec.ranges.size());
  for (const auto& [lo, hi] : spec.ranges) {
    out.push_back(rng->UniformRange(lo, hi));
  }
  return out;
}

}  // namespace

Result<Execution> Engine::Run(const std::string& instance_name,
                              Rng* rng) const {
  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    Result<Execution> result = RunOnce(instance_name, rng);
    if (result.ok()) return result;
    last = result.status();
    if (last.code() == StatusCode::kInternal) return last;  // hard failure
  }
  return Status::FailedPrecondition(StrFormat(
      "execution '%s' failed after %d attempts: %s", instance_name.c_str(),
      options_.max_attempts, last.message().c_str()));
}

Result<Execution> Engine::RunOnce(const std::string& instance_name,
                                  Rng* rng) const {
  switch (options_.mode) {
    case ExecutionMode::kDeadPath:
      return RunDeadPath(instance_name, rng);
    case ExecutionMode::kTokenFire:
      return RunTokenFire(instance_name, rng);
  }
  return Status::Internal("unknown execution mode");
}

Result<Execution> Engine::RunDeadPath(const std::string& instance_name,
                                      Rng* rng) const {
  if (options_.max_duration > 0) {
    return RunDeadPathWithAgents(instance_name, rng);
  }
  const DirectedGraph& g = def_->graph();
  PROCMINE_ASSIGN_OR_RETURN(NodeId source, def_->process_graph().Source());
  PROCMINE_ASSIGN_OR_RETURN(NodeId sink, def_->process_graph().Sink());

  const size_t n = static_cast<size_t>(g.num_nodes());
  std::vector<int64_t> resolved(n, 0);  // incoming edges with a truth value
  std::vector<int64_t> fired(n, 0);     // incoming edges that were true
  std::vector<bool> executed(n, false);
  std::vector<NodeId> ready = {source};

  Execution exec(instance_name);
  int64_t clock = 0;
  bool sink_ran = false;

  // Propagates a truth value along edge (from, to); when `to` becomes fully
  // resolved it either becomes ready or goes dead (propagating falsity).
  // Iterative worklist to avoid deep recursion on long chains.
  std::deque<std::pair<NodeId, bool>> signals;  // (target, value)
  auto flush_signals = [&]() {
    while (!signals.empty()) {
      auto [v, value] = signals.front();
      signals.pop_front();
      ++resolved[static_cast<size_t>(v)];
      if (value) ++fired[static_cast<size_t>(v)];
      if (resolved[static_cast<size_t>(v)] < g.InDegree(v)) continue;
      bool runs = def_->join(v) == JoinKind::kOr
                      ? fired[static_cast<size_t>(v)] > 0
                      : fired[static_cast<size_t>(v)] == g.InDegree(v);
      if (runs) {
        ready.push_back(v);
      } else {
        for (NodeId w : g.OutNeighbors(v)) signals.emplace_back(w, false);
      }
    }
  };

  auto execute = [&](NodeId v, int64_t start, int64_t end) {
    executed[static_cast<size_t>(v)] = true;
    if (v == sink) sink_ran = true;
    std::vector<int64_t> output = DrawOutputs(def_->output_spec(v), rng);
    for (NodeId w : g.OutNeighbors(v)) {
      signals.emplace_back(w, def_->condition(v, w).Eval(output));
    }
    exec.Append(ActivityInstance{v, start, end},
                options_.record_outputs ? std::span<const int64_t>(output)
                                        : std::span<const int64_t>());
  };

  while (!ready.empty()) {
    if (options_.parallel_overlap && ready.size() > 1) {
      // Run the whole ready set as one overlapping batch: member i gets the
      // interval [clock + i, clock + batch + i], so all pairs overlap and no
      // two start simultaneously.
      std::vector<NodeId> batch;
      batch.swap(ready);
      rng->Shuffle(&batch);
      int64_t batch_size = static_cast<int64_t>(batch.size());
      for (int64_t i = 0; i < batch_size; ++i) {
        execute(batch[static_cast<size_t>(i)], clock + i,
                clock + batch_size + i);
      }
      clock += 2 * batch_size;
    } else {
      size_t pick = rng->Index(ready.size());
      NodeId v = ready[pick];
      ready.erase(ready.begin() + static_cast<ptrdiff_t>(pick));
      execute(v, clock, clock);
      ++clock;
    }
    flush_signals();
  }

  if (!sink_ran) {
    return Status::FailedPrecondition("terminating activity never ran");
  }
  return exec;
}

Result<Execution> Engine::RunDeadPathWithAgents(
    const std::string& instance_name, Rng* rng) const {
  const DirectedGraph& g = def_->graph();
  PROCMINE_ASSIGN_OR_RETURN(NodeId source, def_->process_graph().Source());
  PROCMINE_ASSIGN_OR_RETURN(NodeId sink, def_->process_graph().Sink());
  PROCMINE_CHECK_GE(options_.num_agents, 1);
  PROCMINE_CHECK_LE(options_.min_duration, options_.max_duration);

  const size_t n = static_cast<size_t>(g.num_nodes());
  std::vector<int64_t> resolved(n, 0);
  std::vector<int64_t> fired(n, 0);
  // ready_time[v]: causality floor — max completion time over the signals
  // v has received, so v never starts before a predecessor finished.
  std::vector<int64_t> ready_time(n, 0);
  // Ready work items: (activity, time it became ready).
  std::vector<std::pair<NodeId, int64_t>> ready = {{source, 0}};
  std::vector<int64_t> agent_free(static_cast<size_t>(options_.num_agents),
                                  0);
  std::unordered_set<int64_t> used_starts;
  // Instances in completion order, each with the outputs it records.
  std::vector<std::pair<ActivityInstance, std::vector<int64_t>>> instances;
  bool sink_ran = false;

  struct Signal {
    NodeId target;
    bool value;
    int64_t available_at;
  };
  std::deque<Signal> signals;
  auto flush_signals = [&]() {
    while (!signals.empty()) {
      Signal s = signals.front();
      signals.pop_front();
      size_t v = static_cast<size_t>(s.target);
      ++resolved[v];
      if (s.value) ++fired[v];
      ready_time[v] = std::max(ready_time[v], s.available_at);
      if (resolved[v] < g.InDegree(s.target)) continue;
      bool runs = def_->join(s.target) == JoinKind::kOr
                      ? fired[v] > 0
                      : fired[v] == g.InDegree(s.target);
      if (runs) {
        ready.emplace_back(s.target, ready_time[v]);
      } else {
        for (NodeId w : g.OutNeighbors(s.target)) {
          signals.push_back({w, false, ready_time[v]});
        }
      }
    }
  };

  while (!ready.empty()) {
    size_t pick = rng->Index(ready.size());
    auto [v, enable_time] = ready[pick];
    ready.erase(ready.begin() + static_cast<ptrdiff_t>(pick));

    // First agent to come free takes the work item. Starting strictly
    // after both the enabling completion and the agent's previous task
    // keeps "terminates before starts" (the mining precedence relation)
    // true for every genuine dependency and same-agent succession.
    size_t agent = 0;
    for (size_t a = 1; a < agent_free.size(); ++a) {
      if (agent_free[a] < agent_free[agent]) agent = a;
    }
    int64_t start = std::max(enable_time, agent_free[agent]) + 1;
    while (!used_starts.insert(start).second) ++start;  // distinct starts
    int64_t end = start + rng->UniformRange(options_.min_duration,
                                            options_.max_duration);
    agent_free[agent] = end;

    if (v == sink) sink_ran = true;
    std::vector<int64_t> output = DrawOutputs(def_->output_spec(v), rng);
    for (NodeId w : g.OutNeighbors(v)) {
      signals.push_back({w, def_->condition(v, w).Eval(output), end});
    }
    if (!options_.record_outputs) output.clear();
    instances.emplace_back(ActivityInstance{v, start, end}, std::move(output));
    flush_signals();
  }

  if (!sink_ran) {
    return Status::FailedPrecondition("terminating activity never ran");
  }
  std::stable_sort(instances.begin(), instances.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.start < b.first.start;
                   });
  Execution exec(instance_name);
  for (const auto& [inst, output] : instances) exec.Append(inst, output);
  return exec;
}

Result<Execution> Engine::RunTokenFire(const std::string& instance_name,
                                       Rng* rng) const {
  const DirectedGraph& g = def_->graph();
  PROCMINE_ASSIGN_OR_RETURN(NodeId source, def_->process_graph().Source());
  PROCMINE_ASSIGN_OR_RETURN(NodeId sink, def_->process_graph().Sink());

  std::vector<NodeId> pending = {source};
  Execution exec(instance_name);
  int64_t clock = 0;
  int steps = 0;

  while (!pending.empty()) {
    size_t pick = rng->Index(pending.size());
    NodeId v = pending[pick];
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(pick));

    if (++steps > options_.max_steps) {
      return Status::Internal(StrFormat(
          "execution '%s' exceeded max_steps=%d (unbounded loop?)",
          instance_name.c_str(), options_.max_steps));
    }
    std::vector<int64_t> output = DrawOutputs(def_->output_spec(v), rng);
    exec.Append(ActivityInstance{v, clock, clock},
                options_.record_outputs ? std::span<const int64_t>(output)
                                        : std::span<const int64_t>());
    ++clock;

    if (v == sink) return exec;  // terminating activity ends the execution

    for (NodeId w : g.OutNeighbors(v)) {
      if (def_->condition(v, w).Eval(output)) pending.push_back(w);
    }
  }
  return Status::FailedPrecondition("terminating activity never ran");
}

Result<EventLog> Engine::GenerateLog(size_t n, uint64_t seed,
                                     const std::string& instance_prefix) const {
  EventLog log;
  // Intern activity names in vertex-id order so the log's ActivityIds are
  // exactly the definition's NodeIds.
  for (NodeId v = 0; v < def_->num_activities(); ++v) {
    ActivityId id = log.dictionary().Intern(def_->name(v));
    PROCMINE_CHECK_EQ(id, v);
  }
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Rng child = rng.Fork(i);
    PROCMINE_ASSIGN_OR_RETURN(
        Execution exec,
        Run(StrFormat("%s_%06zu", instance_prefix.c_str(), i), &child));
    log.AddExecution(std::move(exec));
  }
  return log;
}

}  // namespace procmine
