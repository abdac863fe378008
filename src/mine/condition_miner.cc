#include "mine/condition_miner.h"

#include <algorithm>

#include "graph/dot.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace procmine {

Dataset ConditionMiner::BuildTrainingSet(const EventLog& log, ActivityId u,
                                         ActivityId v) {
  // Determine the feature width from the first recorded output of u.
  int width = -1;
  for (const Execution& exec : log.executions()) {
    for (const InstanceOutput& o : exec.outputs()) {
      if (exec[o.instance].activity == u) {
        width = static_cast<int>(o.values.size());
        break;
      }
    }
    if (width >= 0) break;
  }
  if (width < 0) return Dataset(0);  // u never recorded outputs

  Dataset data(width);
  for (const Execution& exec : log.executions()) {
    // First instance of u with a full output vector; label by v's presence.
    const InstanceOutput* u_output = nullptr;
    for (const InstanceOutput& o : exec.outputs()) {
      if (exec[o.instance].activity == u &&
          static_cast<int>(o.values.size()) == width) {
        u_output = &o;
        break;
      }
    }
    if (u_output != nullptr) data.Add(u_output->values, exec.Contains(v));
  }
  return data;
}

Result<AnnotatedProcess> ConditionMiner::Mine(const ProcessGraph& graph,
                                              const EventLog& log) const {
  PROCMINE_SPAN("condition_miner.mine");
  static obs::Counter* considered = obs::MetricsRegistry::Get().GetCounter(
      "condition_miner.edges_considered");
  static obs::Counter* learned = obs::MetricsRegistry::Get().GetCounter(
      "condition_miner.conditions_learned");
  AnnotatedProcess annotated;
  annotated.graph = graph;

  uint64_t edge_seed = options_.seed;
  for (const Edge& e : graph.graph().Edges()) {
    MinedCondition mined;
    mined.edge = e;
    mined.rule = "true";

    Dataset data = BuildTrainingSet(log, e.from, e.to);
    mined.num_positive = data.num_positive();
    mined.num_negative = data.num_negative();

    bool trivially_true = data.num_negative() == 0;
    if (data.num_features() > 0 && !trivially_true &&
        static_cast<int64_t>(data.size()) >= options_.min_examples) {
      auto [train, test] = data.Split(options_.holdout_fraction, ++edge_seed);
      if (train.empty() || test.empty()) {
        train = data;
        test = data;
      }
      DecisionTree tree = DecisionTree::Train(train, options_.tree);
      mined.train_accuracy = Evaluate(tree, train).Accuracy();
      mined.test_accuracy = Evaluate(tree, test).Accuracy();
      mined.rule = RuleSetToString(ExtractPositiveRules(tree));
      mined.tree = std::move(tree);
      mined.learned = true;
      learned->Increment();
    }
    considered->Increment();
    annotated.conditions.push_back(std::move(mined));
  }
  return annotated;
}

std::string AnnotatedProcess::ToDot(const std::string& graph_name) const {
  DotOptions options;
  options.graph_name = graph_name;
  for (const MinedCondition& c : conditions) {
    if (c.learned) options.edge_labels.push_back({c.edge, c.rule});
  }
  return procmine::ToDot(graph.graph(), graph.names(), options);
}

}  // namespace procmine
