#include "mine/special_dag_miner.h"

#include "mine/general_dag_miner.h"
#include "util/strings.h"

namespace procmine {
namespace mine_internal {

Status ValidateExactlyOnce(const Execution& exec,
                           const ActivityDictionary& dict, NodeId n,
                           std::vector<uint8_t>* seen) {
  if (exec.size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(StrFormat(
        "execution '%s' has %zu activities but the log has %d distinct "
        "activities; Algorithm 1 requires every activity exactly once "
        "per execution (use GeneralDagMiner)",
        exec.name().c_str(), exec.size(), n));
  }
  const ActivityId repeat = FirstRepeat(exec, seen);
  if (repeat < 0) return Status::OK();
  return Status::InvalidArgument(StrFormat(
      "execution '%s' repeats activity '%s'; Algorithm 1 requires "
      "every activity exactly once per execution",
      exec.name().c_str(), dict.Name(repeat).c_str()));
}

}  // namespace mine_internal
}  // namespace procmine
