#include "mine/reconstruct.h"

#include <algorithm>
#include <limits>

namespace procmine {

Condition RulesToCondition(const std::vector<ConjunctiveRule>& rules) {
  if (rules.empty()) return Condition::False();
  Condition disjunction = Condition::False();
  bool first = true;
  for (const ConjunctiveRule& rule : rules) {
    Condition conjunction = Condition::True();
    bool first_literal = true;
    for (const RuleLiteral& lit : rule.literals) {
      Condition leaf = Condition::Compare(
          lit.feature, lit.is_le ? CmpOp::kLe : CmpOp::kGt, lit.threshold);
      conjunction = first_literal ? leaf
                                  : Condition::And(std::move(conjunction),
                                                   std::move(leaf));
      first_literal = false;
    }
    disjunction = first ? conjunction
                        : Condition::Or(std::move(disjunction),
                                        std::move(conjunction));
    first = false;
  }
  return disjunction;
}

Result<ProcessDefinition> ReconstructDefinition(
    const AnnotatedProcess& annotated, const EventLog& log) {
  PROCMINE_RETURN_NOT_OK(annotated.graph.Validate(/*require_acyclic=*/true));
  ProcessDefinition def(annotated.graph);

  // Output ranges observed per activity in the log; indexes must line up
  // (the miner's graph shares ids with the log's dictionary).
  const NodeId n = def.num_activities();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> ranges(
      static_cast<size_t>(n));
  for (const Execution& exec : log.executions()) {
    for (const InstanceOutput& o : exec.outputs()) {
      const ActivityId activity = exec[o.instance].activity;
      if (activity >= n) continue;
      auto& r = ranges[static_cast<size_t>(activity)];
      if (r.size() < o.values.size()) {
        r.resize(o.values.size(),
                 {std::numeric_limits<int64_t>::max(),
                  std::numeric_limits<int64_t>::min()});
      }
      for (size_t i = 0; i < o.values.size(); ++i) {
        r[i].first = std::min(r[i].first, o.values[i]);
        r[i].second = std::max(r[i].second, o.values[i]);
      }
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    OutputSpec spec;
    spec.ranges = ranges[static_cast<size_t>(v)];
    def.SetOutputSpec(v, std::move(spec));
  }

  // Learned rules become edge conditions; unlearned edges stay `true`.
  for (const MinedCondition& mined : annotated.conditions) {
    if (!mined.learned) continue;
    Condition condition =
        RulesToCondition(ExtractPositiveRules(mined.tree));
    // Guard against rules that reference parameters the activity never
    // produced in the log (possible under extreme truncation): widen the
    // output spec with a zero-range filler so Validate passes.
    Status valid = condition.Validate(
        def.output_spec(mined.edge.from).num_params());
    if (!valid.ok()) {
      return Status::Internal(
          "learned rule references unavailable output parameters: " +
          std::string(valid.message()));
    }
    def.SetCondition(mined.edge.from, mined.edge.to, std::move(condition));
  }
  PROCMINE_RETURN_NOT_OK(def.Validate(/*require_acyclic=*/true));
  return def;
}

}  // namespace procmine
