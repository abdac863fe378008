#include "log/execution.h"

#include <algorithm>

namespace procmine {

Execution Execution::FromSequence(std::string name,
                                  const std::vector<ActivityId>& sequence) {
  Execution exec(std::move(name));
  int64_t t = 0;
  for (ActivityId a : sequence) {
    exec.Append(ActivityInstance{a, t, t});
    ++t;
  }
  return exec;
}

std::span<const int64_t> Execution::output(size_t i) const {
  auto it = std::lower_bound(
      outputs_.begin(), outputs_.end(), i,
      [](const InstanceOutput& o, size_t index) { return o.instance < index; });
  if (it == outputs_.end() || it->instance != i) return {};
  return it->values;
}

std::vector<ActivityId> Execution::Sequence() const {
  std::vector<ActivityId> seq;
  seq.reserve(instances_.size());
  for (const auto& inst : instances_) seq.push_back(inst.activity);
  return seq;
}

bool Execution::Contains(ActivityId activity) const {
  for (const auto& inst : instances_) {
    if (inst.activity == activity) return true;
  }
  return false;
}

int64_t Execution::CountOf(ActivityId activity) const {
  int64_t n = 0;
  for (const auto& inst : instances_) n += (inst.activity == activity);
  return n;
}

}  // namespace procmine
