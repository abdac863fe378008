#include "obs/report.h"

#include <algorithm>
#include <optional>
#include <set>

#include "graph/dot.h"
#include "mine/noise.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine::obs {

namespace {

// >= 5 distinct thresholds: 1, 2, the mined T, the Section 6 optimum, and
// quarter points of m, padded with small consecutive values if the log is
// tiny. Sorted ascending.
std::vector<int64_t> DefaultSweep(int64_t m, int64_t mined_threshold,
                                  double epsilon) {
  std::set<int64_t> picks;
  auto add = [&picks, m](int64_t t) {
    picks.insert(std::clamp<int64_t>(t, 1, std::max<int64_t>(m, 1)));
  };
  add(1);
  add(2);
  add(mined_threshold);
  if (epsilon > 0.0 && m > 0) {
    add(OptimalNoiseThreshold(m, std::min(epsilon, 0.499)));
  }
  add(m / 4);
  add(m / 2);
  add(3 * m / 4);
  // Pad to >= 5 distinct thresholds. Unclamped: a log with m < 5 executions
  // cannot yield 5 values inside [1, m], and the bounds are total above m
  // (spurious -> 0, lost -> 1), so oversized thresholds are well-defined.
  for (int64_t t = 3; static_cast<int64_t>(picks.size()) < 5; ++t) {
    picks.insert(t);
  }
  return std::vector<int64_t>(picks.begin(), picks.end());
}

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

const char* BoolName(bool b) { return b ? "true" : "false"; }

}  // namespace

Result<RunReport> BuildRunReport(const EventLog& log,
                                 const RunReportOptions& options) {
  PROCMINE_SPAN("report.build");
  if (log.num_executions() == 0) {
    return Status::InvalidArgument("log is empty");
  }

  const MinerOptions& mine = options.miner;
  RunReport report;
  report.noise_threshold = mine.noise_threshold;
  report.num_executions = static_cast<int64_t>(log.num_executions());
  report.num_activities = static_cast<int64_t>(log.num_activities());

  if (options.ingestion != nullptr) {
    report.has_ingestion = true;
    report.ingestion = *options.ingestion;
    // The raw rejected bytes belong in the quarantine sidecar, not the
    // report; keep the JSON bounded by carrying only the aggregates.
    report.ingestion.quarantined.clear();
  }

  ProvenanceRecorder recorder;
  MinerOptions miner_options = mine;
  miner_options.provenance = &recorder;
  miner_options.degradation = &report.degradation;
  PROCMINE_ASSIGN_OR_RETURN(report.model,
                            ProcessMiner(miner_options).Mine(log));

  report.algorithm = ToString(recorder.algorithm());
  report.edges = recorder.Edges();
  report.activity_names = recorder.names();
  report.occurrence_labeled = recorder.has_base_mapping();
  if (report.occurrence_labeled) {
    report.base_endpoints.reserve(report.edges.size());
    for (const EdgeProvenance& p : report.edges) {
      report.base_endpoints.emplace_back(recorder.base_activity(p.edge.from),
                                         recorder.base_activity(p.edge.to));
    }
  }

  // One extent pass serves both audit phases: the caller's, or our own,
  // computed by the first phase that runs.
  std::optional<Relations> computed;
  auto relations = [&]() -> const Relations& {
    if (options.relations != nullptr) return *options.relations;
    if (!computed.has_value()) computed = Relations::Compute(log);
    return *computed;
  };

  // Exhausted budgets skip the audit phases rather than failing the report:
  // the partial model is still emitted, and the degradation record names the
  // first phase that was cut.
  if (!BudgetCut(mine.budget, &report.degradation, "report.conformance",
                 "conformance audit skipped; per-execution verdicts are "
                 "absent")) {
    PROCMINE_SPAN("report.conformance");
    ConformanceChecker checker(&report.model);
    report.conformance =
        checker.CheckLog(log, /*record_verdicts=*/true, &relations());
  }

  if (!BudgetCut(mine.budget, &report.degradation, "report.sensitivity",
                 "noise sensitivity sweep skipped; the table is empty")) {
    PROCMINE_SPAN("report.sensitivity");
    report.epsilon = relations().epsilon();
    const int64_t m = report.num_executions;
    std::vector<int64_t> sweep =
        options.sweep.empty()
            ? DefaultSweep(m, mine.noise_threshold, report.epsilon)
            : options.sweep;
    std::sort(sweep.begin(), sweep.end());
    sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
    report.sensitivity.reserve(sweep.size());
    for (int64_t t : sweep) {
      NoiseSensitivityRow row;
      row.threshold = t;
      row.edges_kept = recorder.CountWithSupportAtLeast(t);
      row.edges_dropped = recorder.num_candidates() - row.edges_kept;
      row.spurious_bound =
          report.epsilon > 0.0 ? SpuriousEdgeBound(m, t, report.epsilon) : 0.0;
      row.lost_bound = FalseDependencyBound(m, t);
      row.unstable =
          std::max(row.spurious_bound, row.lost_bound) > options.unstable_cutoff;
      report.sensitivity.push_back(row);
    }
  }

  // Shard-dependent metrics (kShardDependentMetrics) are dropped from the
  // embedded snapshot so report bytes stay identical for every --threads
  // value; timing histograms are excluded by the same predicate.
  MetricsSnapshot snapshot = MetricsRegistry::Get().Snapshot();
  for (const auto& c : snapshot.counters) {
    if (!ShardDependentMetric(c.name)) report.metrics.counters.push_back(c);
  }
  report.metrics.gauges = snapshot.gauges;
  for (const auto& h : snapshot.histograms) {
    if (!ShardDependentMetric(h.name)) report.metrics.histograms.push_back(h);
  }
  return report;
}

std::string RunReport::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema_version\": 2,\n";
  out += "  \"algorithm\": ";
  AppendQuoted(&out, algorithm);
  out += StrFormat(",\n  \"noise_threshold\": %lld",
                   static_cast<long long>(noise_threshold));
  out += StrFormat(",\n  \"num_executions\": %lld",
                   static_cast<long long>(num_executions));
  out += StrFormat(",\n  \"num_activities\": %lld",
                   static_cast<long long>(num_activities));
  out += StrFormat(",\n  \"occurrence_labeled\": %s",
                   BoolName(occurrence_labeled));
  out += StrFormat(",\n  \"epsilon\": %.6g,\n", epsilon);

  out += StrFormat("  \"degraded\": %s,\n", BoolName(degradation.degraded));
  if (degradation.degraded) {
    out += "  \"degradation\": {\"resource\": ";
    AppendQuoted(&out, std::string(BudgetResourceName(degradation.resource)));
    out += ", \"cut_phase\": ";
    AppendQuoted(&out, degradation.cut_phase);
    out += ", \"dropped\": ";
    AppendQuoted(&out, degradation.dropped);
    out += "},\n";
  } else {
    out += "  \"degradation\": null,\n";
  }

  if (has_ingestion) {
    out += "  \"ingestion\": {\n    \"policy\": ";
    AppendQuoted(&out, std::string(RecoveryPolicyName(ingestion.policy)));
    out += StrFormat(
        ",\n    \"lines_total\": %lld,\n    \"events_parsed\": %lld,\n"
        "    \"lines_skipped\": %lld,\n    \"executions_dropped\": %lld,\n"
        "    \"salvage_attempted\": %s,\n    \"salvaged_executions\": %lld,\n"
        "    \"salvage_dropped_bytes\": %lld,\n    \"error_classes\": {",
        static_cast<long long>(ingestion.lines_total),
        static_cast<long long>(ingestion.events_parsed),
        static_cast<long long>(ingestion.lines_skipped),
        static_cast<long long>(ingestion.executions_dropped),
        BoolName(ingestion.salvage_attempted),
        static_cast<long long>(ingestion.salvaged_executions),
        static_cast<long long>(ingestion.salvage_dropped_bytes));
    for (size_t i = 0; i < ingestion.error_classes.size(); ++i) {
      if (i != 0) out += ", ";
      AppendQuoted(&out, ingestion.error_classes[i].first);
      out += StrFormat(": %lld",
                       static_cast<long long>(ingestion.error_classes[i].second));
    }
    out += "}\n  },\n";
  } else {
    out += "  \"ingestion\": null,\n";
  }

  out += "  \"model\": {\n    \"activities\": [";
  const std::vector<std::string>& model_names = model.names();
  for (size_t i = 0; i < model_names.size(); ++i) {
    if (i != 0) out += ", ";
    AppendQuoted(&out, model_names[i]);
  }
  out += "],\n    \"edges\": [";
  std::vector<Edge> model_edges = model.graph().Edges();
  for (size_t i = 0; i < model_edges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"from\": ";
    AppendQuoted(&out, model.name(model_edges[i].from));
    out += ", \"to\": ";
    AppendQuoted(&out, model.name(model_edges[i].to));
    out += "}";
  }
  out += model_edges.empty() ? "]\n  },\n" : "\n    ]\n  },\n";

  auto provenance_name = [this](NodeId v) -> const std::string& {
    static const std::string kUnknown = "?";
    if (static_cast<size_t>(v) < activity_names.size()) {
      return activity_names[static_cast<size_t>(v)];
    }
    return kUnknown;
  };
  out += "  \"edges\": [";
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeProvenance& p = edges[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"from\": ";
    AppendQuoted(&out, provenance_name(p.edge.from));
    out += ", \"to\": ";
    AppendQuoted(&out, provenance_name(p.edge.to));
    out += StrFormat(
        ", \"support\": %lld, \"first_witness\": %lld, "
        "\"last_witness\": %lld, \"status\": \"%s\"",
        static_cast<long long>(p.support),
        static_cast<long long>(p.first_witness),
        static_cast<long long>(p.last_witness),
        std::string(ToString(p.reason)).c_str());
    if (occurrence_labeled && i < base_endpoints.size()) {
      const auto& [base_from, base_to] = base_endpoints[i];
      out += ", \"base_from\": ";
      AppendQuoted(&out, model.name(base_from));
      out += ", \"base_to\": ";
      AppendQuoted(&out, model.name(base_to));
    }
    out += "}";
  }
  out += edges.empty() ? "],\n" : "\n  ],\n";

  out += "  \"conformance\": {\n";
  out += StrFormat("    \"conformal\": %s,\n",
                   BoolName(conformance.conformal()));
  out += StrFormat("    \"dependency_complete\": %s,\n",
                   BoolName(conformance.dependency_complete));
  out += StrFormat("    \"irredundant\": %s,\n",
                   BoolName(conformance.irredundant));
  out += StrFormat("    \"execution_complete\": %s,\n",
                   BoolName(conformance.execution_complete));
  out += "    \"verdicts\": [";
  for (size_t i = 0; i < conformance.verdicts.size(); ++i) {
    const ExecutionVerdict& v = conformance.verdicts[i];
    out += i == 0 ? "\n" : ",\n";
    out += "      {\"execution\": ";
    AppendQuoted(&out, v.execution);
    out += StrFormat(", \"consistent\": %s", BoolName(v.consistent));
    if (!v.consistent) {
      out += ", \"violation\": ";
      AppendQuoted(&out, v.violation);
      out += StrFormat(", \"first_violation_event\": %lld",
                       static_cast<long long>(v.first_violation_event));
    }
    out += "}";
  }
  out += conformance.verdicts.empty() ? "]\n  },\n" : "\n    ]\n  },\n";

  out += "  \"sensitivity\": [";
  for (size_t i = 0; i < sensitivity.size(); ++i) {
    const NoiseSensitivityRow& row = sensitivity[i];
    out += i == 0 ? "\n" : ",\n";
    out += StrFormat(
        "    {\"threshold\": %lld, \"edges_kept\": %lld, "
        "\"edges_dropped\": %lld, \"spurious_bound\": %.6g, "
        "\"lost_bound\": %.6g, \"unstable\": %s}",
        static_cast<long long>(row.threshold),
        static_cast<long long>(row.edges_kept),
        static_cast<long long>(row.edges_dropped), row.spurious_bound,
        row.lost_bound, BoolName(row.unstable));
  }
  out += sensitivity.empty() ? "],\n" : "\n  ],\n";

  out += "  \"metrics\": ";
  std::string metrics_json = metrics.ToJson();
  while (!metrics_json.empty() && metrics_json.back() == '\n') {
    metrics_json.pop_back();
  }
  out += metrics_json;
  out += "\n}\n";
  return out;
}

std::string RunReport::ToAnnotatedDot() const {
  DirectedGraph g(static_cast<NodeId>(activity_names.size()));
  DotOptions dot;
  dot.graph_name = "run_report";
  for (const EdgeProvenance& p : edges) {
    if (p.kept()) {
      g.AddEdge(p.edge.from, p.edge.to);
      dot.edge_attributes.emplace_back(
          p.edge, StrFormat("label=\"%lld\"",
                            static_cast<long long>(p.support)));
    } else {
      dot.extra_edges.emplace_back(
          p.edge,
          StrFormat("style=dashed, color=gray, fontcolor=gray, "
                    "label=\"%s (%lld)\"",
                    std::string(ToString(p.reason)).c_str(),
                    static_cast<long long>(p.support)));
    }
  }
  return ToDot(g, activity_names, dot);
}

std::string RunReport::SensitivityTableText() const {
  std::string out = StrFormat("%6s %10s %13s %15s %12s %s\n", "T", "kept",
                              "dropped", "spurious_bound", "lost_bound",
                              "stability");
  for (const NoiseSensitivityRow& row : sensitivity) {
    out += StrFormat("%6lld %10lld %13lld %15.3g %12.3g %s%s\n",
                     static_cast<long long>(row.threshold),
                     static_cast<long long>(row.edges_kept),
                     static_cast<long long>(row.edges_dropped),
                     row.spurious_bound, row.lost_bound,
                     row.unstable ? "UNSTABLE" : "ok",
                     row.threshold == noise_threshold ? "  <- mined T" : "");
  }
  return out;
}

std::string RunReport::SummaryText() const {
  int64_t kept = 0;
  int64_t below = 0;
  int64_t two_cycle = 0;
  int64_t intra_scc = 0;
  int64_t reduced = 0;
  for (const EdgeProvenance& p : edges) {
    switch (p.reason) {
      case DropReason::kKept:
        ++kept;
        break;
      case DropReason::kBelowThreshold:
        ++below;
        break;
      case DropReason::kTwoCycle:
        ++two_cycle;
        break;
      case DropReason::kIntraScc:
        ++intra_scc;
        break;
      case DropReason::kTransitiveReduction:
        ++reduced;
        break;
    }
  }
  int64_t inconsistent = 0;
  for (const ExecutionVerdict& v : conformance.verdicts) {
    if (!v.consistent) ++inconsistent;
  }
  std::string out = StrFormat(
      "algorithm            %s\n"
      "executions           %lld\n"
      "activities           %lld\n"
      "noise threshold (T)  %lld\n"
      "estimated epsilon    %.6g\n"
      "candidate edges      %lld\n"
      "  kept               %lld\n"
      "  below_threshold    %lld\n"
      "  two_cycle          %lld\n"
      "  intra_scc          %lld\n"
      "  transitive_reduct. %lld\n"
      "conformal            %s\n"
      "inconsistent execs   %lld / %lld\n",
      algorithm.c_str(), static_cast<long long>(num_executions),
      static_cast<long long>(num_activities),
      static_cast<long long>(noise_threshold), epsilon,
      static_cast<long long>(edges.size()), static_cast<long long>(kept),
      static_cast<long long>(below), static_cast<long long>(two_cycle),
      static_cast<long long>(intra_scc), static_cast<long long>(reduced),
      BoolName(conformance.conformal()),
      static_cast<long long>(inconsistent),
      static_cast<long long>(conformance.verdicts.size()));
  int64_t unstable_lo = -1;
  int64_t unstable_hi = -1;
  for (const NoiseSensitivityRow& row : sensitivity) {
    if (!row.unstable) continue;
    if (unstable_lo < 0) unstable_lo = row.threshold;
    unstable_hi = row.threshold;
  }
  if (unstable_lo >= 0) {
    out += StrFormat("unstable T band      [%lld, %lld]\n",
                     static_cast<long long>(unstable_lo),
                     static_cast<long long>(unstable_hi));
  } else {
    out += "unstable T band      none\n";
  }
  if (degradation.degraded) {
    out += StrFormat("DEGRADED             %s budget exhausted at %s\n",
                     std::string(BudgetResourceName(degradation.resource))
                         .c_str(),
                     degradation.cut_phase.c_str());
    out += StrFormat("  dropped            %s\n", degradation.dropped.c_str());
  }
  if (has_ingestion && ingestion.AnyLoss()) {
    out += ingestion.SummaryText();
  }
  return out;
}

}  // namespace procmine::obs
