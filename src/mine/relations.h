// The log relations of Section 2: following (Definition 3), dependence
// (Definition 4), and independence — computed directly from a log, without
// mining a graph — together with the Section 6 out-of-order rate epsilon,
// which reads the same pair counts. The conformance checker uses the
// relations to verify Definition 7's dependency-completeness and
// irredundancy clauses; --threshold=auto, `noise` and the report's
// sensitivity sweep read epsilon; tests use both to validate the paper's
// worked examples.

#ifndef PROCMINE_MINE_RELATIONS_H_
#define PROCMINE_MINE_RELATIONS_H_

#include <vector>

#include "graph/digraph.h"
#include "log/event_log.h"
#include "util/bit_matrix.h"

namespace procmine {

/// Follows/depends/independent relations over a log's activities, and the
/// log's estimated out-of-order rate.
///
/// Both come from occurrence extents (first start, last end of an activity
/// in one execution), so logs with repeated activities are handled the same
/// way as repeat-free ones.
class Relations {
 public:
  /// One sequential pass over the executions, O(p^2) per execution (p =
  /// activities present), counting for every ordered pair (a, b) the
  /// executions holding both (cooccur) and those in which a's extent wholly
  /// precedes b's (ordered). b directly follows a iff cooccur(a, b) > 0 and
  /// ordered(a, b) == cooccur(a, b); epsilon is EstimateNoiseRate of the
  /// ordered counts. Then one transitive closure.
  static Relations Compute(const EventLog& log);

  /// Definition 3: B follows A (directly or through intermediaries).
  bool Follows(ActivityId b, ActivityId a) const {
    return follows_closure_.Test(static_cast<size_t>(a),
                                 static_cast<size_t>(b));
  }

  /// Definition 4: B depends on A iff B follows A but A does not follow B.
  bool DependsOn(ActivityId b, ActivityId a) const {
    return Follows(b, a) && !Follows(a, b);
  }

  /// Definition 4: independent iff both follow each other or neither does.
  bool Independent(ActivityId a, ActivityId b) const {
    return Follows(a, b) == Follows(b, a);
  }

  /// The primitive-followings graph: edge (a, b) iff b directly follows a
  /// (before taking the transitive closure).
  const DirectedGraph& followings_graph() const { return followings_; }

  /// Transitive closure of the followings graph: row a holds every b that
  /// follows a. Exposed so the conformance checker can reuse it instead of
  /// recomputing a reachability matrix of its own.
  const BitMatrix& follows_closure() const { return follows_closure_; }

  NodeId num_activities() const { return followings_.num_nodes(); }

  /// All dependent pairs (a, b) with b depending on a, sorted.
  std::vector<Edge> AllDependencies() const;

  /// The Section 6 per-pair out-of-order rate of the log (see
  /// EstimateNoiseRate in mine/noise.h); 0 for clean or empty logs.
  double epsilon() const { return epsilon_; }

 private:
  DirectedGraph followings_;
  BitMatrix follows_closure_;
  double epsilon_ = 0.0;
};

}  // namespace procmine

#endif  // PROCMINE_MINE_RELATIONS_H_
