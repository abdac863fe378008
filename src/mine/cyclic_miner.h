// Algorithm 3 (Cyclic Graphs), Section 5 of the paper: occurrence labeling.
//
// Cycles make repeated appearances of an activity legitimate, which breaks
// Algorithms 1-2. The fix: label the k-th occurrence of activity A in an
// execution as the distinct pseudo-activity A#k, run the Algorithm 2
// machinery on the labeled log (which is repeat-free by construction), and
// finally merge the equivalent sets {A#1, A#2, ...} back into A. An edge
// (A, B) appears in the merged graph iff some edge connected an instance of
// A to an instance of B with A != B (step 8: edges between instances of the
// SAME activity are dropped by the merge). The pipeline (mine/pipeline.h)
// runs the labeling window by window and does the merge; this file holds
// the labeling itself.

#ifndef PROCMINE_MINE_CYCLIC_MINER_H_
#define PROCMINE_MINE_CYCLIC_MINER_H_

#include <cstdint>
#include <vector>

#include "log/event_log.h"

namespace procmine {

class ThreadPool;

/// Incremental occurrence labeling: the table "k-th occurrence of A is
/// pseudo-activity A#k", built one execution at a time so a windowed mine
/// can label a store without materializing the labeled log. Observe() in
/// log order interns labels in first-encounter order, so labeled ids are a
/// pure function of the log; RelabelLog() then rewrites executions against
/// the table. Single-threaded.
class OccurrenceLabeler {
 public:
  /// Extends the label table with `exec`'s occurrences. `base_dict` names
  /// the activity ids `exec` uses; call in log order.
  void Observe(const Execution& exec, const ActivityDictionary& base_dict);

  /// The labeled dictionary ("A#1", "B#1", "A#2", ...).
  const ActivityDictionary& labeled_dictionary() const { return labeled_dict_; }

  /// Labeled ActivityId -> base ActivityId.
  const std::vector<ActivityId>& labeled_to_base() const {
    return labeled_to_base_;
  }

  /// label_ids()[a][k-1] is the labeled id of the k-th occurrence of base
  /// activity a.
  const std::vector<std::vector<ActivityId>>& label_ids() const {
    return label_ids_;
  }

 private:
  ActivityDictionary labeled_dict_;
  std::vector<std::vector<ActivityId>> label_ids_;
  std::vector<ActivityId> labeled_to_base_;
  std::vector<int64_t> occurrence_;  // per-exec scratch, reset via touched_
  std::vector<size_t> touched_;
};

/// Rewrites every execution of `log` into `labeler`'s labeled id space;
/// each occurrence must already have been Observed. The executions are
/// rewritten in parallel shards under `pool` (null = sequential) and kept in
/// log order, so the result is the same for any thread count. The returned
/// log carries no dictionary: collection and set gathering read ids only.
EventLog RelabelLog(const EventLog& log, const OccurrenceLabeler& labeler,
                    ThreadPool* pool);

/// The labeled log whole, for tests and the worked paper example
/// (Figure 6): occurrence labels "A#1", "A#2", ... as its dictionary, and a
/// parallel map from labeled ActivityId to original ActivityId. Observe
/// runs sequentially over the log, then RelabelLog under `pool`.
EventLog LabelOccurrences(const EventLog& log,
                          std::vector<ActivityId>* labeled_to_base,
                          ThreadPool* pool = nullptr);

}  // namespace procmine

#endif  // PROCMINE_MINE_CYCLIC_MINER_H_
