#include "mine/provenance.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"

namespace procmine {

std::string_view ToString(DropReason reason) {
  switch (reason) {
    case DropReason::kKept:
      return "kept";
    case DropReason::kBelowThreshold:
      return "below_threshold";
    case DropReason::kTwoCycle:
      return "two_cycle";
    case DropReason::kIntraScc:
      return "intra_scc";
    case DropReason::kTransitiveReduction:
      return "transitive_reduction";
  }
  return "unknown";
}

void EdgeEvidence::Merge(const EdgeEvidence& other) {
  support += other.support;
  if (first_witness < 0 ||
      (other.first_witness >= 0 && other.first_witness < first_witness)) {
    first_witness = other.first_witness;
  }
  last_witness = std::max(last_witness, other.last_witness);
}

void ProvenanceRecorder::MarkDropped(NodeId from, NodeId to,
                                     DropReason reason) {
  dropped_.emplace(PackEdge(from, to), reason);  // first reason wins
}

EdgeProvenance ProvenanceRecorder::Provenance(
    uint64_t key, const EdgeEvidence& evidence) const {
  EdgeProvenance p;
  p.edge = UnpackEdge(key);
  p.support = evidence.support;
  p.first_witness = evidence.first_witness;
  p.last_witness = evidence.last_witness;
  auto it = dropped_.find(key);
  if (it != dropped_.end()) p.reason = it->second;
  return p;
}

std::vector<EdgeProvenance> ProvenanceRecorder::Edges() const {
  std::vector<EdgeProvenance> out;
  out.reserve(evidence_.size());
  for (const auto& [key, evidence] : evidence_) {
    out.push_back(Provenance(key, evidence));
  }
  std::sort(out.begin(), out.end(),
            [](const EdgeProvenance& a, const EdgeProvenance& b) {
              return a.edge < b.edge;
            });
  return out;
}

std::optional<EdgeProvenance> ProvenanceRecorder::Find(NodeId from,
                                                       NodeId to) const {
  const uint64_t key = PackEdge(from, to);
  auto it = evidence_.find(key);
  if (it == evidence_.end()) return std::nullopt;
  return Provenance(key, it->second);
}

int64_t ProvenanceRecorder::CountWithSupportAtLeast(int64_t threshold) const {
  int64_t count = 0;
  for (const auto& [key, evidence] : evidence_) {
    if (evidence.support >= threshold) ++count;
  }
  return count;
}

int64_t ProvenanceRecorder::max_support() const {
  int64_t max = 0;
  for (const auto& [key, evidence] : evidence_) {
    max = std::max(max, evidence.support);
  }
  return max;
}

void ProvenanceRecorder::Reset() {
  evidence_.clear();
  dropped_.clear();
  algorithm_ = MinerAlgorithm::kAuto;
  names_.clear();
  labeled_to_base_.clear();
  base_names_.clear();
}

namespace {

// The step that runs the final transitive reduction.
const char* ReductionStep(MinerAlgorithm algorithm) {
  return algorithm == MinerAlgorithm::kSpecialDag ? "step 4" : "steps 5-6";
}

// The non-trivial strongly connected components of step 4. A path between
// two members of one component stays inside it, so the components are the
// strongly connected components of the intra_scc edges alone. Members
// ascend, and groups are ordered by their smallest member.
std::vector<std::vector<NodeId>> SccGroups(
    const std::vector<EdgeProvenance>& edges, NodeId n) {
  DirectedGraph intra(n);
  for (const EdgeProvenance& p : edges) {
    if (p.reason == DropReason::kIntraScc) {
      intra.AddEdge(p.edge.from, p.edge.to);
    }
  }
  const SccResult scc = StronglyConnectedComponents(intra);
  std::vector<std::vector<NodeId>> members(
      static_cast<size_t>(scc.num_components));
  for (NodeId v = 0; v < n; ++v) {
    members[static_cast<size_t>(scc.component[static_cast<size_t>(v)])]
        .push_back(v);
  }
  std::vector<std::vector<NodeId>> groups;
  for (std::vector<NodeId>& group : members) {
    if (group.size() > 1) groups.push_back(std::move(group));
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

}  // namespace

std::string NarrateMining(const ProvenanceRecorder& recorder) {
  const std::vector<std::string>& names = recorder.names();
  const std::vector<EdgeProvenance> edges = recorder.Edges();
  const MinerAlgorithm algorithm = recorder.algorithm();
  auto name = [&names](NodeId v) -> const std::string& {
    return names[static_cast<size_t>(v)];
  };
  auto with_reason = [&edges](DropReason reason) {
    std::vector<Edge> out;
    for (const EdgeProvenance& p : edges) {
      if (p.reason == reason) out.push_back(p.edge);
    }
    return out;
  };
  auto list = [&name](std::ostringstream& out, const std::vector<Edge>& es) {
    for (const Edge& e : es) out << " " << name(e.from) << " -> " << name(e.to);
  };

  std::ostringstream out;
  const int number = algorithm == MinerAlgorithm::kSpecialDag ? 1
                     : algorithm == MinerAlgorithm::kCyclic   ? 3
                                                              : 2;
  out << "Algorithm " << number << " (" << ToString(algorithm) << ") over "
      << names.size()
      << (recorder.has_base_mapping() ? " occurrence-labelled" : "")
      << " activities\n";
  out << "step 2: collected " << edges.size()
      << " candidate precedence edges\n";
  const std::vector<Edge> below = with_reason(DropReason::kBelowThreshold);
  out << "step 2: the noise threshold dropped " << below.size()
      << " rare edges:";
  list(out, below);
  out << "\n";

  // Step 3 drops both directions of a pair; list each pair once.
  std::vector<Edge> pairs;
  for (const Edge& e : with_reason(DropReason::kTwoCycle)) {
    if (e.from <= e.to) pairs.push_back(e);
  }
  out << "step 3: " << pairs.size()
      << " activity pairs observed in both orders (independent):";
  for (const Edge& e : pairs) {
    out << " {" << name(e.from) << ", " << name(e.to) << "}";
  }
  out << "\n";

  if (algorithm != MinerAlgorithm::kSpecialDag) {
    const std::vector<std::vector<NodeId>> groups =
        SccGroups(edges, static_cast<NodeId>(names.size()));
    out << "step 4: " << groups.size()
        << " strongly connected components dissolved:";
    for (const std::vector<NodeId>& group : groups) {
      out << " {";
      for (size_t i = 0; i < group.size(); ++i) {
        out << (i ? ", " : "") << name(group[i]);
      }
      out << "}";
    }
    out << "\n";
  }

  const std::vector<Edge> kept = with_reason(DropReason::kKept);
  const std::vector<Edge> reduced =
      with_reason(DropReason::kTransitiveReduction);
  out << "dependency graph: " << kept.size() + reduced.size() << " edges\n";
  out << ReductionStep(algorithm) << ": transitive reduction kept "
      << kept.size() << " edges, removed " << reduced.size() << ":";
  list(out, reduced);
  out << "\n";
  return out.str();
}

Result<std::string> ExplainEdge(const ProvenanceRecorder& recorder,
                                const EventLog& log, std::string_view from,
                                std::string_view to) {
  const std::vector<std::string>& names = recorder.names();
  auto id_of = [&](std::string_view activity) -> Result<NodeId> {
    auto it = std::find(names.begin(), names.end(), activity);
    if (it != names.end()) return static_cast<NodeId>(it - names.begin());
    std::string message = "unknown activity: '" + std::string(activity) + "'";
    if (recorder.has_base_mapping()) {
      message += " (Algorithm 3 explains occurrence-labelled names such as '" +
                 std::string(activity) + "#1')";
    }
    return Status::NotFound(message);
  };
  PROCMINE_ASSIGN_OR_RETURN(NodeId a, id_of(from));
  PROCMINE_ASSIGN_OR_RETURN(NodeId b, id_of(to));
  const std::string edge =
      "edge " + std::string(from) + " -> " + std::string(to);

  const std::optional<EdgeProvenance> p = recorder.Find(a, b);
  if (!p.has_value()) {
    return edge + " was never observed (" + std::string(to) +
           " never started after " + std::string(from) + " terminated)\n";
  }
  const std::string seen = "seen " + std::to_string(p->support) + "x";
  switch (p->reason) {
    case DropReason::kKept: {
      auto execution = [&log](int64_t index) -> const std::string& {
        return log.execution(static_cast<size_t>(index)).name();
      };
      return edge + " is in the model (kept): observed in " +
             std::to_string(p->support) + " executions, first in " +
             execution(p->first_witness) + ", last in " +
             execution(p->last_witness) + "\n";
    }
    case DropReason::kBelowThreshold:
      return edge + " was dropped by the noise threshold (below_threshold): " +
             seen + "\n";
    case DropReason::kTwoCycle: {
      const std::optional<EdgeProvenance> reverse = recorder.Find(b, a);
      return edge + " was dropped at step 3 (two_cycle): " + seen +
             ", but the reverse order " +
             std::to_string(reverse.has_value() ? reverse->support : 0) +
             "x — the activities are independent\n";
    }
    case DropReason::kIntraScc:
      return edge +
             " was dropped at step 4 (intra_scc): both activities sit in one "
             "strongly connected component of followings (independent)\n";
    case DropReason::kTransitiveReduction:
      return edge + " was dropped at " + ReductionStep(recorder.algorithm()) +
             " (transitive_reduction): " + seen +
             ", but a longer path covers the dependency everywhere it was "
             "observed\n";
  }
  return Status::Internal("unknown drop reason");
}

}  // namespace procmine
