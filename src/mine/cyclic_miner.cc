#include "mine/cyclic_miner.h"

#include "obs/trace.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {

void OccurrenceLabeler::Observe(const Execution& exec,
                                const ActivityDictionary& base_dict) {
  if (label_ids_.size() < static_cast<size_t>(base_dict.size())) {
    label_ids_.resize(static_cast<size_t>(base_dict.size()));
    occurrence_.resize(static_cast<size_t>(base_dict.size()), 0);
  }
  touched_.clear();
  for (const ActivityInstance& inst : exec.instances()) {
    size_t a = static_cast<size_t>(inst.activity);
    if (occurrence_[a] == 0) touched_.push_back(a);
    size_t k = static_cast<size_t>(++occurrence_[a]);
    if (k > label_ids_[a].size()) {
      std::string name =
          StrFormat("%s#%lld", base_dict.Name(inst.activity).c_str(),
                    static_cast<long long>(k));
      ActivityId labeled_id = labeled_dict_.Intern(name);
      label_ids_[a].push_back(labeled_id);
      if (static_cast<size_t>(labeled_id) >= labeled_to_base_.size()) {
        labeled_to_base_.resize(static_cast<size_t>(labeled_id) + 1, -1);
      }
      labeled_to_base_[static_cast<size_t>(labeled_id)] = inst.activity;
    }
  }
  for (size_t a : touched_) occurrence_[a] = 0;
}

EventLog RelabelLog(const EventLog& log, const OccurrenceLabeler& labeler,
                    ThreadPool* pool) {
  const std::vector<std::vector<ActivityId>>& label_ids = labeler.label_ids();
  std::vector<Execution> out(log.num_executions());
  std::vector<ExecutionSpan> spans = log.Shards(
      pool == nullptr ? 1 : static_cast<size_t>(pool->num_threads()));
  auto relabel_span = [&log, &label_ids, &out](ExecutionSpan span) {
    PROCMINE_SPAN("cyclic.relabel_shard");
    std::vector<int64_t> occurrence(label_ids.size(), 0);
    std::vector<size_t> touched;
    for (size_t e = span.begin; e < span.end; ++e) {
      const Execution& exec = log.execution(e);
      Execution rewritten = exec;
      touched.clear();
      for (size_t i = 0; i < exec.size(); ++i) {
        size_t a = static_cast<size_t>(exec[i].activity);
        if (occurrence[a] == 0) touched.push_back(a);
        size_t k = static_cast<size_t>(++occurrence[a]);
        rewritten.Relabel(i, label_ids[a][k - 1]);
      }
      for (size_t a : touched) occurrence[a] = 0;
      out[e] = std::move(rewritten);
    }
  };
  if (pool != nullptr && spans.size() > 1) {
    pool->ParallelForChunked(spans.size(),
                             [&](size_t c) { relabel_span(spans[c]); });
  } else {
    for (const ExecutionSpan& span : spans) relabel_span(span);
  }
  EventLog labeled;
  for (Execution& exec : out) labeled.AddExecution(std::move(exec));
  return labeled;
}

EventLog LabelOccurrences(const EventLog& log,
                          std::vector<ActivityId>* labeled_to_base,
                          ThreadPool* pool) {
  PROCMINE_SPAN("cyclic.label");
  OccurrenceLabeler labeler;
  for (const Execution& exec : log.executions()) {
    labeler.Observe(exec, log.dictionary());
  }
  EventLog labeled = RelabelLog(log, labeler, pool);
  labeled.dictionary() = labeler.labeled_dictionary();
  if (labeled_to_base != nullptr) *labeled_to_base = labeler.labeled_to_base();
  return labeled;
}

}  // namespace procmine
