#include "mine/incremental.h"

#include <algorithm>
#include <unordered_set>

#include "graph/algorithms.h"
#include "graph/transitive_reduction.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

Status IncrementalMiner::AddSequence(
    const std::vector<std::string>& sequence) {
  std::vector<ActivityId> ids;
  ids.reserve(sequence.size());
  for (const std::string& name : sequence) ids.push_back(dict_.Intern(name));
  return Absorb(Execution::FromSequence(
      StrFormat("stream_%06zu", num_executions_), ids));
}

Status IncrementalMiner::AddExecution(const Execution& exec,
                                      const ActivityDictionary& dict) {
  Execution remapped = exec;
  for (size_t i = 0; i < exec.size(); ++i) {
    remapped.Relabel(i, dict_.Intern(dict.Name(exec[i].activity)));
  }
  return Absorb(remapped);
}

Status IncrementalMiner::AddLog(const EventLog& log) {
  for (const Execution& exec : log.executions()) {
    PROCMINE_RETURN_NOT_OK(AddExecution(exec, log.dictionary()));
  }
  return Status::OK();
}

Status IncrementalMiner::AddLogBudgeted(const EventLog& log, RunBudget* budget,
                                        DegradationInfo* degradation,
                                        int64_t* applied) {
  if (applied != nullptr) *applied = 0;
  ProbeTicker ticker(64);
  const size_t total = log.num_executions();
  for (size_t i = 0; i < total; ++i) {
    if (budget != nullptr) {
      auto remaining = [&] {
        return StrFormat("%zu of %zu batch executions not absorbed",
                         total - i, total);
      };
      // The execution cap is checked on every iteration (it is exact and
      // cheap); the clock/rss probes are amortized through the ticker,
      // except the first iteration so a budget exhausted before the batch
      // cuts at zero.
      if (budget->OverExecutionLimit(static_cast<int64_t>(num_executions_) +
                                     1)) {
        if (degradation != nullptr && !degradation->degraded) {
          degradation->degraded = true;
          degradation->resource = BudgetResource::kExecutions;
          degradation->cut_phase = "incremental.absorb";
          degradation->dropped = remaining();
        }
        break;
      }
      if ((i == 0 || ticker.Due()) &&
          BudgetCut(budget, degradation, "incremental.absorb", remaining())) {
        break;
      }
    }
    PROCMINE_RETURN_NOT_OK(AddExecution(log.execution(i), log.dictionary()));
    if (applied != nullptr) ++*applied;
  }
  return Status::OK();
}

Status IncrementalMiner::RemoveSequence(
    const std::vector<std::string>& sequence) {
  std::vector<ActivityId> ids;
  ids.reserve(sequence.size());
  for (const std::string& name : sequence) {
    PROCMINE_ASSIGN_OR_RETURN(ActivityId id, dict_.Find(name));
    ids.push_back(id);
  }
  return Evict(Execution::FromSequence("evicted", ids));
}

Status IncrementalMiner::RemoveExecution(const Execution& exec,
                                         const ActivityDictionary& dict) {
  Execution remapped = exec;
  for (size_t i = 0; i < exec.size(); ++i) {
    PROCMINE_ASSIGN_OR_RETURN(ActivityId id,
                              dict_.Find(dict.Name(exec[i].activity)));
    remapped.Relabel(i, id);
  }
  return Evict(remapped);
}

Status IncrementalMiner::Absorb(const Execution& exec) {
  PROCMINE_SPAN("incremental.absorb");
  if (exec.empty()) {
    return Status::InvalidArgument("empty execution");
  }
  std::vector<ActivityId> present = exec.Sequence();
  std::sort(present.begin(), present.end());
  if (std::adjacent_find(present.begin(), present.end()) != present.end()) {
    return Status::InvalidArgument(
        "execution repeats an activity; the incremental miner covers the "
        "acyclic setting (use CyclicMiner in batch mode)");
  }

  // No activity repeats, so every qualifying instance pair is a distinct
  // activity pair and counts once.
  ForEachPrecedencePair(exec, [this](uint64_t key) { ++counts_[key]; });

  ++set_counts_[std::move(present)];
  ++num_executions_;
  ++version_;
  static obs::Counter* absorbed =
      obs::MetricsRegistry::Get().GetCounter("incremental.executions_absorbed");
  absorbed->Increment();
  return Status::OK();
}

Status IncrementalMiner::Evict(const Execution& exec) {
  PROCMINE_SPAN("incremental.evict");
  if (exec.empty()) {
    return Status::InvalidArgument("empty execution");
  }
  std::vector<ActivityId> present = exec.Sequence();
  std::sort(present.begin(), present.end());
  if (std::adjacent_find(present.begin(), present.end()) != present.end()) {
    return Status::InvalidArgument(
        "execution repeats an activity; the incremental miner covers the "
        "acyclic setting (use CyclicMiner in batch mode)");
  }

  // Validate before mutating: a failed eviction must leave the state
  // untouched. The pairs are Absorb's enumeration, so eviction undoes
  // exactly what the matching Absorb contributed.
  auto set_it = set_counts_.find(present);
  if (set_it == set_counts_.end() || set_it->second <= 0) {
    return Status::FailedPrecondition(
        "eviction of an execution whose activity set was never absorbed");
  }
  bool pairs_absorbed = true;
  ForEachPrecedencePair(exec, [&](uint64_t key) {
    auto it = counts_.find(key);
    if (it == counts_.end() || it->second <= 0) pairs_absorbed = false;
  });
  if (!pairs_absorbed) {
    return Status::FailedPrecondition(
        "eviction of an execution whose precedence pairs were never "
        "absorbed");
  }

  ForEachPrecedencePair(exec, [this](uint64_t key) {
    auto it = counts_.find(key);
    if (--it->second == 0) counts_.erase(it);
  });
  if (--set_it->second == 0) set_counts_.erase(set_it);
  --num_executions_;
  ++version_;
  static obs::Counter* evicted =
      obs::MetricsRegistry::Get().GetCounter("incremental.executions_evicted");
  evicted->Increment();
  return Status::OK();
}

int64_t IncrementalMiner::EdgeSupport(ActivityId from, ActivityId to) const {
  auto it = counts_.find(PackEdge(from, to));
  return it == counts_.end() ? 0 : it->second;
}

void IncrementalMiner::SetNoiseThreshold(int64_t threshold) {
  options_.noise_threshold = threshold;
  ++version_;
}

Result<ProcessGraph> IncrementalMiner::CurrentGraph() const {
  if (cached_version_ == version_) return cached_graph_;
  if (num_executions_ == 0) {
    return Status::FailedPrecondition("no executions absorbed yet");
  }
  PROCMINE_SPAN("incremental.rebuild");
  static obs::Counter* rebuilds =
      obs::MetricsRegistry::Get().GetCounter("incremental.rebuilds");
  rebuilds->Increment();

  // Steps 2-4 of Algorithm 2 over the accumulated counters.
  DirectedGraph g =
      BuildPrecedenceGraph(counts_, dict_.size(), options_.noise_threshold);
  RemoveTwoCycles(&g);
  RemoveIntraSccEdges(&g);

  // Steps 5-6 over the distinct activity sets.
  std::unordered_set<uint64_t> marked;
  for (const auto& [present, count] : set_counts_) {
    DirectedGraph induced = InducedSubgraph(g, present);
    Result<DirectedGraph> reduced = TransitiveReduction(induced);
    if (!reduced.ok()) {
      cached_version_ = version_;
      cached_graph_ = reduced.status();
      return cached_graph_;
    }
    for (const Edge& e : reduced->Edges()) {
      marked.insert(PackEdge(e.from, e.to));
    }
  }
  DirectedGraph result(dict_.size());
  for (uint64_t key : marked) {
    Edge e = UnpackEdge(key);
    result.AddEdge(e.from, e.to);
  }
  cached_version_ = version_;
  cached_graph_ = ProcessGraph(std::move(result), dict_.names());
  return cached_graph_;
}

}  // namespace procmine
