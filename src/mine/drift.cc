#include "mine/drift.h"

#include <algorithm>
#include <set>
#include <utility>

#include "mine/noise.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace procmine {

namespace {

constexpr const char kSpuriousBound[] = "spurious_edge_bound";
constexpr const char kFalseDependencyBound[] = "false_dependency_bound";

using NamePair = std::pair<std::string, std::string>;

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

// The alert body shared by the JSON-lines feed and the report's alert
// array (no surrounding braces / newline).
std::string AlertFields(const DriftAlert& a) {
  std::string out;
  out += "\"alert\": ";
  AppendQuoted(&out, std::string(DriftAlertKindName(a.kind)));
  out += StrFormat(", \"window\": %lld, \"window_first\": %lld, "
                   "\"window_last\": %lld, \"from\": ",
                   static_cast<long long>(a.window_index),
                   static_cast<long long>(a.window_first),
                   static_cast<long long>(a.window_last));
  AppendQuoted(&out, a.from);
  out += ", \"to\": ";
  AppendQuoted(&out, a.to);
  out += StrFormat(", \"support_before\": %lld, \"support_after\": %lld, "
                   "\"bound\": ",
                   static_cast<long long>(a.support_before),
                   static_cast<long long>(a.support_after));
  AppendQuoted(&out, a.bound);
  out += StrFormat(", \"bound_value\": %.6g, \"witness_execution\": %lld, "
                   "\"witness_name\": ",
                   a.bound_value,
                   static_cast<long long>(a.witness_execution));
  AppendQuoted(&out, a.witness_name);
  return out;
}

}  // namespace

std::string_view DriftAlertKindName(DriftAlert::Kind kind) {
  switch (kind) {
    case DriftAlert::Kind::kEdgeAppeared:
      return "edge_appeared";
    case DriftAlert::Kind::kEdgeVanished:
      return "edge_vanished";
    case DriftAlert::Kind::kDirectionFlipped:
      return "direction_flipped";
    case DriftAlert::Kind::kSupportSurge:
      return "support_surge";
    case DriftAlert::Kind::kSupportCollapse:
      return "support_collapse";
  }
  return "unknown";
}

std::string DriftAlert::ToJsonLine() const {
  return "{" + AlertFields(*this) + "}\n";
}

int64_t SupportHighWatermark(int64_t m, double cutoff) {
  // FalseDependencyBound(m, m - s) = C(m, s) (1/2)^s is decreasing in s on
  // its upper tail; walk down from s = m and stop at the first s that
  // exceeds the cutoff.
  int64_t s_hi = m + 1;
  for (int64_t s = m; s >= 1; --s) {
    if (FalseDependencyBound(m, m - s) > cutoff) break;
    s_hi = s;
  }
  return s_hi;
}

std::string DriftReport::ToJson() const {
  std::string out;
  out.reserve(1024 + alerts.size() * 256 + windows.size() * 160);
  out += "{\n";
  out += "  \"schema_version\": 3,\n";
  out += "  \"report\": \"drift\",\n";
  out += "  \"source\": ";
  AppendQuoted(&out, source);
  out += ",\n";
  out += "  \"monitor\": {";
  out += StrFormat(
      "\"window_executions\": %lld, \"slide\": %lld, "
      "\"noise_threshold\": %lld, \"epsilon\": %.6g, "
      "\"bound_cutoff\": %.6g, \"min_final_window\": %lld",
      static_cast<long long>(options.window_executions),
      static_cast<long long>(options.slide > 0 ? options.slide
                                               : options.window_executions),
      static_cast<long long>(options.noise_threshold), options.epsilon,
      options.bound_cutoff, static_cast<long long>(options.min_final_window));
  out += "},\n";
  out += StrFormat("  \"num_executions\": %lld,\n",
                   static_cast<long long>(num_executions));
  out += StrFormat("  \"num_windows\": %lld,\n",
                   static_cast<long long>(num_windows));
  out += StrFormat("  \"drift_detected\": %s,\n",
                   drift_detected() ? "true" : "false");
  out += StrFormat("  \"num_alerts\": %lld,\n",
                   static_cast<long long>(alerts.size()));
  out += "  \"registry\": {\"dir\": ";
  AppendQuoted(&out, registry_dir);
  out += StrFormat(", \"latest_version\": %lld},\n",
                   static_cast<long long>(registry_latest_version));
  out += "  \"windows\": [";
  for (size_t i = 0; i < windows.size(); ++i) {
    const DriftWindowSummary& w = windows[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += StrFormat(
        "{\"index\": %lld, \"first_execution\": %lld, "
        "\"last_execution\": %lld, \"num_executions\": %lld, "
        "\"noise_threshold\": %lld, \"support_high\": %lld, "
        "\"support_low\": %lld, \"num_activities\": %lld, "
        "\"num_edges\": %lld, \"registry_version\": %lld, "
        "\"num_alerts\": %lld}",
        static_cast<long long>(w.index),
        static_cast<long long>(w.first_execution),
        static_cast<long long>(w.last_execution),
        static_cast<long long>(w.num_executions),
        static_cast<long long>(w.noise_threshold),
        static_cast<long long>(w.support_high),
        static_cast<long long>(w.support_low),
        static_cast<long long>(w.num_activities),
        static_cast<long long>(w.num_edges),
        static_cast<long long>(w.registry_version),
        static_cast<long long>(w.num_alerts));
  }
  out += windows.empty() ? "],\n" : "\n  ],\n";
  out += "  \"alerts\": [";
  for (size_t i = 0; i < alerts.size(); ++i) {
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{" + AlertFields(alerts[i]) + "}";
  }
  out += alerts.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

DriftMonitor::DriftMonitor(DriftOptions options, obs::ModelRegistry* registry)
    : options_(options), registry_(registry) {
  if (options_.window_executions < 2) options_.window_executions = 2;
  if (options_.epsilon < 0.0) options_.epsilon = 0.0;
  if (options_.epsilon >= 0.5) options_.epsilon = 0.499;
  if (options_.bound_cutoff <= 0.0) options_.bound_cutoff = 0.05;
}

int64_t DriftMonitor::EffectiveSlide() const {
  return options_.slide > 0 ? options_.slide : options_.window_executions;
}

Status DriftMonitor::Add(const Execution& exec,
                         const ActivityDictionary& dict) {
  if (finished_) {
    return Status::FailedPrecondition("DriftMonitor already finished");
  }
  PROCMINE_RETURN_NOT_OK(miner_.AddExecution(exec, dict));

  // Keep a copy in the miner's id space so eviction and witness scans need
  // no further remapping (every name exists in the miner's dictionary now).
  Execution remapped = exec;
  for (size_t i = 0; i < exec.size(); ++i) {
    PROCMINE_ASSIGN_OR_RETURN(
        ActivityId id, miner_.dictionary().Find(dict.Name(exec[i].activity)));
    remapped.Relabel(i, id);
  }
  window_.push_back(WindowEntry{next_index_, std::move(remapped)});
  ++next_index_;

  while (static_cast<int64_t>(window_.size()) > options_.window_executions) {
    PROCMINE_RETURN_NOT_OK(
        miner_.RemoveExecution(window_.front().exec, miner_.dictionary()));
    window_.pop_front();
  }

  if (next_index_ >= options_.window_executions &&
      (next_index_ - options_.window_executions) % EffectiveSlide() == 0) {
    PROCMINE_RETURN_NOT_OK(EvaluateWindow());
  }
  return Status::OK();
}

Status DriftMonitor::AddLog(const EventLog& log) {
  for (const Execution& exec : log.executions()) {
    PROCMINE_RETURN_NOT_OK(Add(exec, log.dictionary()));
  }
  return Status::OK();
}

Status DriftMonitor::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;
  if (options_.min_final_window <= 0) return Status::OK();
  int64_t remaining = next_index_ - last_window_end_;
  if (remaining < options_.min_final_window || remaining <= 0) {
    return Status::OK();
  }
  // Evaluate only the tail since the last window boundary.
  while (static_cast<int64_t>(window_.size()) > remaining) {
    PROCMINE_RETURN_NOT_OK(
        miner_.RemoveExecution(window_.front().exec, miner_.dictionary()));
    window_.pop_front();
  }
  return EvaluateWindow();
}

DriftAlert DriftMonitor::MakeAlert(DriftAlert::Kind kind,
                                   const std::string& from,
                                   const std::string& to) const {
  DriftAlert alert;
  alert.kind = kind;
  alert.window_index = static_cast<int64_t>(windows_.size());
  alert.window_first = window_.front().global_index;
  alert.window_last = window_.back().global_index;
  alert.from = from;
  alert.to = to;
  return alert;
}

std::pair<int64_t, std::string> DriftMonitor::FindWitness(
    const std::string& from, const std::string& to) const {
  auto from_id = miner_.dictionary().Find(from);
  auto to_id = miner_.dictionary().Find(to);
  if (!from_id.ok() || !to_id.ok()) return {-1, ""};
  for (const WindowEntry& entry : window_) {
    const auto& instances = entry.exec.instances();
    for (size_t i = 0; i < instances.size(); ++i) {
      if (instances[i].activity != *from_id) continue;
      for (size_t j = 0; j < instances.size(); ++j) {
        if (instances[j].activity == *to_id &&
            instances[i].end < instances[j].start) {
          return {entry.global_index, entry.exec.name()};
        }
      }
    }
  }
  return {-1, ""};
}

void DriftMonitor::ScanStructuralChanges(
    const std::map<NamePair, int64_t>& cur, int64_t window_size,
    int64_t s_hi, std::vector<DriftAlert>* out) const {
  const double cutoff = options_.bound_cutoff;
  std::set<NamePair> consumed;

  // Direction flips first: (u,v) leaving the model while (v,u) enters is
  // one event, not two. Trust the flip when the new direction's support is
  // too high to be spurious noise.
  for (const auto& [edge, support_before] : previous_edges_) {
    if (cur.count(edge) > 0) continue;
    NamePair reversed{edge.second, edge.first};
    auto rit = cur.find(reversed);
    if (rit == cur.end() || previous_edges_.count(reversed) > 0) continue;
    double bound = SpuriousEdgeBound(window_size, rit->second,
                                     options_.epsilon);
    if (bound > cutoff) continue;
    DriftAlert alert = MakeAlert(DriftAlert::Kind::kDirectionFlipped,
                                 edge.first, edge.second);
    alert.support_before = support_before;
    alert.support_after = rit->second;
    alert.bound = kSpuriousBound;
    alert.bound_value = bound;
    std::tie(alert.witness_execution, alert.witness_name) =
        FindWitness(reversed.first, reversed.second);
    out->push_back(std::move(alert));
    consumed.insert(edge);
    consumed.insert(reversed);
  }

  // Edges entering the model, gated by the spurious-edge bound: only alert
  // when this much support cannot plausibly be noise. An edge whose raw
  // support was already dependency-like in the previous window merely moved
  // within the transitive reduction — behaviour did not change — and stays
  // silent, mirroring the vanish gate below.
  const int64_t prev_s_hi =
      SupportHighWatermark(previous_size_, cutoff);
  for (const auto& [edge, support] : cur) {
    if (previous_edges_.count(edge) > 0 || consumed.count(edge) > 0) continue;
    double bound = SpuriousEdgeBound(window_size, support, options_.epsilon);
    if (bound > cutoff) continue;
    auto pit = previous_supports_.find(edge);
    const int64_t support_before =
        pit == previous_supports_.end() ? 0 : pit->second;
    if (support_before >= prev_s_hi) continue;
    DriftAlert alert =
        MakeAlert(DriftAlert::Kind::kEdgeAppeared, edge.first, edge.second);
    alert.support_before = support_before;
    alert.support_after = support;
    alert.bound = kSpuriousBound;
    alert.bound_value = bound;
    std::tie(alert.witness_execution, alert.witness_name) =
        FindWitness(edge.first, edge.second);
    out->push_back(std::move(alert));
  }

  // Edges leaving the model. The raw pair counter must have left the
  // dependency-like band (>= s_hi): a transitive-reduction rearrangement
  // keeps its support high and stays silent, while a dependency dissolving
  // into parallelism (~W/2) or vanishing outright alerts. The previous
  // window's support must also have been solid by the false-dependency
  // bound — otherwise the edge was never trustworthy to begin with.
  for (const auto& [edge, support_before] : previous_edges_) {
    if (cur.count(edge) > 0 || consumed.count(edge) > 0) continue;
    int64_t support_after = 0;
    auto from_id = miner_.dictionary().Find(edge.first);
    auto to_id = miner_.dictionary().Find(edge.second);
    if (from_id.ok() && to_id.ok()) {
      support_after = miner_.EdgeSupport(*from_id, *to_id);
    }
    if (support_after >= s_hi) continue;
    double bound =
        FalseDependencyBound(previous_size_, previous_size_ - support_before);
    if (bound > cutoff) continue;
    DriftAlert alert =
        MakeAlert(DriftAlert::Kind::kEdgeVanished, edge.first, edge.second);
    alert.support_before = support_before;
    alert.support_after = support_after;
    alert.bound = kFalseDependencyBound;
    alert.bound_value = bound;
    std::tie(alert.witness_execution, alert.witness_name) =
        FindWitness(edge.second, edge.first);
    out->push_back(std::move(alert));
  }
}

void DriftMonitor::ScanSupportTrajectories(
    int64_t window_size, int64_t s_hi, int64_t s_lo,
    const std::vector<DriftAlert>& structural,
    std::vector<DriftAlert>* out) {
  if (s_hi > window_size || s_lo < 0) return;  // band covers everything

  // Current raw pair supports in name space.
  std::map<NamePair, int64_t> supports;
  for (const auto& [key, count] : miner_.edge_counts()) {
    if (count <= 0) continue;
    Edge e = UnpackEdge(key);
    supports.emplace(NamePair{miner_.dictionary().Name(e.from),
                              miner_.dictionary().Name(e.to)},
                     count);
  }

  // A pair that just raised a structural alert should not page twice.
  std::set<NamePair> structural_pairs;
  for (const DriftAlert& a : structural) {
    structural_pairs.emplace(a.from, a.to);
    structural_pairs.emplace(a.to, a.from);
  }

  // Candidates: every pair currently observed plus every pair with an
  // anchor (so a fully evicted pair can still collapse). std::map keeps
  // the scan — and therefore the alert order — canonical.
  std::map<NamePair, int64_t> candidates = supports;
  for (const auto& [pair, anchor] : anchors_) {
    candidates.emplace(pair, 0);  // no-op when already present
  }

  for (const auto& [pair, support] : candidates) {
    int64_t s = 0;
    auto sit = supports.find(pair);
    if (sit != supports.end()) s = sit->second;
    bool high = s >= s_hi;
    bool low = s <= s_lo;
    if (!high && !low) continue;  // mid: inside the noise band, silent
    Anchor state = high ? Anchor::kHigh : Anchor::kLow;
    auto it = anchors_.find(pair);
    if (it == anchors_.end()) {
      // First time this pair leaves the band: seed silently (a genuinely
      // new edge is the structural scan's job).
      anchors_.emplace(pair, state);
      continue;
    }
    if (it->second == state) continue;
    it->second = state;
    if (!have_baseline_ || structural_pairs.count(pair) > 0) continue;
    DriftAlert alert = MakeAlert(high ? DriftAlert::Kind::kSupportSurge
                                      : DriftAlert::Kind::kSupportCollapse,
                                 pair.first, pair.second);
    auto pit = previous_supports_.find(pair);
    alert.support_before =
        pit == previous_supports_.end() ? 0 : pit->second;
    alert.support_after = s;
    alert.bound = kFalseDependencyBound;
    // The band edge that was crossed: the probability that an independent
    // pair would sit this far out by chance.
    alert.bound_value = high
                            ? FalseDependencyBound(window_size, window_size - s)
                            : FalseDependencyBound(window_size, s);
    std::tie(alert.witness_execution, alert.witness_name) =
        high ? FindWitness(pair.first, pair.second)
             : FindWitness(pair.second, pair.first);
    out->push_back(std::move(alert));
  }
}

Status DriftMonitor::EvaluateWindow() {
  PROCMINE_SPAN("drift.window_eval");
  PROCMINE_PHASE("drift.window_eval");
  static obs::Counter* windows_evaluated =
      obs::MetricsRegistry::Get().GetCounter("drift.windows_evaluated");
  static obs::Counter* alerts_raised =
      obs::MetricsRegistry::Get().GetCounter("drift.alerts_raised");

  const int64_t window_size = static_cast<int64_t>(window_.size());
  if (window_size == 0) {
    return Status::FailedPrecondition("empty drift window");
  }

  int64_t threshold = options_.noise_threshold;
  if (threshold <= 0) {
    threshold = options_.epsilon > 0.0
                    ? OptimalNoiseThreshold(window_size, options_.epsilon)
                    : 1;
  }
  miner_.SetNoiseThreshold(threshold);
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph model, miner_.CurrentGraph());

  // Window-active activities (the miner's dictionary also remembers
  // evicted ones; those must not leak into the snapshot).
  std::set<ActivityId> active_ids;
  for (const WindowEntry& entry : window_) {
    for (const ActivityInstance& inst : entry.exec.instances()) {
      active_ids.insert(inst.activity);
    }
  }

  // The window model in name space, with raw pair support per kept edge.
  std::map<NamePair, int64_t> cur;
  for (const Edge& e : model.graph().Edges()) {
    if (active_ids.count(e.from) == 0 || active_ids.count(e.to) == 0) {
      continue;
    }
    cur.emplace(NamePair{model.name(e.from), model.name(e.to)},
                miner_.EdgeSupport(e.from, e.to));
  }

  const int64_t s_hi = SupportHighWatermark(window_size,
                                            options_.bound_cutoff);
  const int64_t s_lo = window_size - s_hi;

  DriftWindowSummary summary;
  summary.index = static_cast<int64_t>(windows_.size());
  summary.first_execution = window_.front().global_index;
  summary.last_execution = window_.back().global_index;
  summary.num_executions = window_size;
  summary.noise_threshold = threshold;
  summary.support_high = s_hi;
  summary.support_low = s_lo;
  summary.num_activities = static_cast<int64_t>(active_ids.size());
  summary.num_edges = static_cast<int64_t>(cur.size());

  std::vector<DriftAlert> window_alerts;
  if (have_previous_) {
    ScanStructuralChanges(cur, window_size, s_hi, &window_alerts);
  }
  ScanSupportTrajectories(window_size, s_hi, s_lo, window_alerts,
                          &window_alerts);

  if (registry_ != nullptr) {
    obs::ModelSnapshot snapshot;
    snapshot.window.index = summary.index;
    snapshot.window.first_execution = summary.first_execution;
    snapshot.window.last_execution = summary.last_execution;
    snapshot.window.num_executions = window_size;
    snapshot.window.first_name = window_.front().exec.name();
    snapshot.window.last_name = window_.back().exec.name();
    snapshot.noise_threshold = threshold;
    snapshot.epsilon = options_.epsilon;
    for (ActivityId id : active_ids) {
      snapshot.activities.push_back(miner_.dictionary().Name(id));
    }
    std::sort(snapshot.activities.begin(), snapshot.activities.end());
    for (const auto& [edge, support] : cur) {
      snapshot.edges.push_back(
          obs::SnapshotEdge{edge.first, edge.second, support});
    }
    PROCMINE_ASSIGN_OR_RETURN(summary.registry_version,
                              registry_->Append(std::move(snapshot)));
  }

  summary.num_alerts = static_cast<int64_t>(window_alerts.size());
  windows_evaluated->Increment();
  alerts_raised->Add(summary.num_alerts);
  // Live gauges for the telemetry status surface: which window the monitor
  // is on and how noisy the latest one was.
  static obs::Gauge* window_index =
      obs::MetricsRegistry::Get().GetGauge("drift.window_index");
  static obs::Gauge* last_alerts =
      obs::MetricsRegistry::Get().GetGauge("drift.last_window_alerts");
  window_index->Set(summary.index);
  last_alerts->Set(summary.num_alerts);

  // Update comparison state for the next window.
  previous_supports_.clear();
  for (const auto& [key, count] : miner_.edge_counts()) {
    if (count <= 0) continue;
    Edge e = UnpackEdge(key);
    previous_supports_.emplace(NamePair{miner_.dictionary().Name(e.from),
                                        miner_.dictionary().Name(e.to)},
                               count);
  }
  previous_edges_ = std::move(cur);
  previous_size_ = window_size;
  have_previous_ = true;
  have_baseline_ = true;
  last_window_end_ = next_index_;

  for (DriftAlert& alert : window_alerts) {
    alerts_.push_back(std::move(alert));
  }
  windows_.push_back(summary);
  return Status::OK();
}

DriftReport DriftMonitor::BuildReport(std::string source) const {
  DriftReport report;
  report.source = std::move(source);
  report.options = options_;
  report.num_executions = next_index_;
  report.num_windows = num_windows();
  if (registry_ != nullptr) {
    report.registry_dir = registry_->dir();
    report.registry_latest_version = registry_->latest_version();
  }
  report.windows = windows_;
  report.alerts = alerts_;
  return report;
}

}  // namespace procmine
