#include "mine/miner.h"

#include <vector>

#include "mine/pipeline.h"

namespace procmine {

std::string_view ToString(MinerAlgorithm algorithm) {
  switch (algorithm) {
    case MinerAlgorithm::kSpecialDag:
      return "special_dag";
    case MinerAlgorithm::kGeneralDag:
      return "general_dag";
    case MinerAlgorithm::kCyclic:
      return "cyclic";
    case MinerAlgorithm::kAuto:
      break;
  }
  return "auto";
}

MinerAlgorithm ProcessMiner::SelectAlgorithm(const EventLog& log) {
  const NodeId n = log.num_activities();
  std::vector<uint8_t> seen(static_cast<size_t>(n), 0);
  MinerAlgorithm selected = MinerAlgorithm::kSpecialDag;
  for (const Execution& exec : log.executions()) {
    const MinerAlgorithm kind =
        mine_internal::ClassifyExecution(exec, n, &seen);
    if (kind == MinerAlgorithm::kCyclic) return kind;  // repeats => cyclic
    if (kind == MinerAlgorithm::kGeneralDag) selected = kind;
  }
  return selected;
}

Result<ProcessGraph> ProcessMiner::Mine(const EventLog& log) const {
  return mine_internal::MineWindows({.log = &log}, options_);
}

Result<AnnotatedProcess> ProcessMiner::MineWithConditions(
    const EventLog& log, ConditionMinerOptions condition_options) const {
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph graph, Mine(log));
  return ConditionMiner(condition_options).Mine(graph, log);
}

}  // namespace procmine
