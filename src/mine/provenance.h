// Edge provenance — the evidence trail behind a mined model.
//
// The paper's algorithms decide an edge's fate in four places: the Section 6
// noise threshold (step 2), both-direction removal (step 3), intra-SCC
// removal (step 4, Algorithms 2-3), and the transitive-reduction steps. A
// ProvenanceRecorder, when attached to a miner via its options, captures for
// every candidate edge of step 2 its support (number of witnessing
// executions), the first/last witnessing execution indices, and — for edges
// that do not survive — which step dropped it and why. The recorder is the
// one answer to "why is this edge here": obs/report.h's RunReport is built
// on it, and NarrateMining / ExplainEdge below render the paper-style
// step-by-step account (Example 6 / Figure 3, Example 7 / Figure 4) that
// `procmine explain` prints.
//
// Recording is opt-in: every instrumented site costs exactly one
// null-pointer branch when no recorder is attached (the same discipline as
// obs/metrics.h). The recorder itself is only ever touched from the
// orchestrating thread — shard workers fill per-shard pair tables that are
// merged deterministically (sum/min/max) before registration — so the
// recorded provenance is byte-identical for any thread count.

#ifndef PROCMINE_MINE_PROVENANCE_H_
#define PROCMINE_MINE_PROVENANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/digraph.h"
#include "log/activity_dictionary.h"
#include "log/event_log.h"
#include "mine/miner.h"
#include "util/result.h"

namespace procmine {

/// Why a candidate precedence edge did not survive mining. kKept marks the
/// survivors; the other values name the algorithm step that removed it.
enum class DropReason : uint8_t {
  kKept = 0,
  /// Step 2, Section 6: support < noise threshold T.
  kBelowThreshold,
  /// Step 3: the edge was observed in both directions (or is a self loop) —
  /// the endpoints are independent.
  kTwoCycle,
  /// Step 4 (Algorithms 2-3): both endpoints lie in one strongly connected
  /// component of the precedence graph.
  kIntraScc,
  /// Final reduction: the dependency is implied by a longer path (Algorithm
  /// 1 step 4, Algorithm 2 steps 5-6).
  kTransitiveReduction,
};

/// Stable lower-snake name used in report JSON ("kept", "below_threshold",
/// "two_cycle", "intra_scc", "transitive_reduction").
std::string_view ToString(DropReason reason);

/// Step-2 evidence for one candidate edge.
struct EdgeEvidence {
  int64_t support = 0;        ///< executions witnessing the edge
  int64_t first_witness = -1; ///< lowest witnessing execution index
  int64_t last_witness = -1;  ///< highest witnessing execution index

  /// Folds another disjoint-shard cell into this one (sum/min/max — the
  /// merge is commutative and associative, hence shard-order independent).
  void Merge(const EdgeEvidence& other);
};

/// Per-edge evidence keyed by PackEdge(from, to).
using EdgeEvidenceMap = std::unordered_map<uint64_t, EdgeEvidence>;

/// One candidate edge's full story: evidence plus fate.
struct EdgeProvenance {
  Edge edge{-1, -1};
  int64_t support = 0;
  int64_t first_witness = -1;
  int64_t last_witness = -1;
  DropReason reason = DropReason::kKept;

  bool kept() const { return reason == DropReason::kKept; }
};

/// Collects the provenance of one mining run. Attach via the miners'
/// `provenance` option; read back with Edges() once Mine() returns.
///
/// For the cyclic miner the recorded id space is the occurrence-labeled one
/// ("A#1", "A#2", ...) in which Algorithm 3 actually collects and prunes
/// edges; base_activity() maps labeled ids back to the original activities.
class ProvenanceRecorder {
 public:
  /// Registers the merged step-2 evidence. Called once per run (the cyclic
  /// miner's inner Algorithm 2 run is that run).
  void SetEvidence(EdgeEvidenceMap evidence) {
    evidence_ = std::move(evidence);
  }

  /// Marks candidate (from, to) as dropped. The first recorded reason wins:
  /// the steps run in pipeline order, so the first reason is the step that
  /// actually removed the edge.
  void MarkDropped(NodeId from, NodeId to, DropReason reason);

  /// Activity names of the recorded id space (the mined log's dictionary, or
  /// the labeled dictionary for the cyclic miner).
  void SetActivityNames(std::vector<std::string> names) {
    names_ = std::move(names);
  }

  /// The algorithm the pipeline ran: kAuto's pick, or the one asked for.
  void SetAlgorithm(MinerAlgorithm algorithm) { algorithm_ = algorithm; }
  MinerAlgorithm algorithm() const { return algorithm_; }

  /// Cyclic miner only: labeled-id -> base-id mapping plus the base names.
  void SetBaseMapping(std::vector<ActivityId> labeled_to_base,
                      std::vector<std::string> base_names) {
    labeled_to_base_ = std::move(labeled_to_base);
    base_names_ = std::move(base_names);
  }

  /// Every candidate edge with its fate, sorted by (from, to) so consumers
  /// see a deterministic order.
  std::vector<EdgeProvenance> Edges() const;
  /// One candidate's story; nullopt when (from, to) was never observed.
  std::optional<EdgeProvenance> Find(NodeId from, NodeId to) const;

  /// Candidates whose support reaches `threshold` / all candidates — the
  /// inputs of the no-re-mining noise-sensitivity sweep.
  int64_t CountWithSupportAtLeast(int64_t threshold) const;
  int64_t num_candidates() const {
    return static_cast<int64_t>(evidence_.size());
  }
  /// Highest support over all candidates (0 when empty).
  int64_t max_support() const;

  const EdgeEvidenceMap& evidence() const { return evidence_; }
  const std::vector<std::string>& names() const { return names_; }
  const std::vector<std::string>& base_names() const { return base_names_; }
  bool has_base_mapping() const { return !labeled_to_base_.empty(); }
  /// Base activity of a recorded id (identity when no mapping was set).
  ActivityId base_activity(NodeId labeled) const {
    return has_base_mapping() ? labeled_to_base_[static_cast<size_t>(labeled)]
                              : labeled;
  }

  /// Drops all recorded state so the recorder can serve another run.
  void Reset();

 private:
  EdgeProvenance Provenance(uint64_t key, const EdgeEvidence& evidence) const;

  EdgeEvidenceMap evidence_;
  std::unordered_map<uint64_t, DropReason> dropped_;
  MinerAlgorithm algorithm_ = MinerAlgorithm::kAuto;
  std::vector<std::string> names_;
  std::vector<ActivityId> labeled_to_base_;
  std::vector<std::string> base_names_;
};

/// The paper-style narration of a recorded run, one line per step: the
/// candidate count and the noise-threshold drops (step 2), the pairs seen in
/// both orders (step 3), the strongly connected components dissolved (step
/// 4, Algorithms 2-3; recovered as the connected components of the
/// intra_scc edges), the dependency-graph size, and the edges the final
/// transitive reduction removed. Names are the recorder's id space.
std::string NarrateMining(const ProvenanceRecorder& recorder);

/// Why the edge `from` -> `to` (names of the recorder's id space) is or is
/// not in the model: kept with its support and first/last witnessing
/// execution, never observed, or the step that dropped it. `log` is the
/// mined log, read for the witnesses' execution names. NotFound when either
/// name is not an activity of the recorded space.
Result<std::string> ExplainEdge(const ProvenanceRecorder& recorder,
                                const EventLog& log, std::string_view from,
                                std::string_view to);

}  // namespace procmine

#endif  // PROCMINE_MINE_PROVENANCE_H_
