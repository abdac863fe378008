// procmine — command-line front end.
//
// Every subcommand is one row of kCommands (near the end of this file): its
// name, its usage text and the function that runs it. `procmine` with no
// arguments prints every row's usage plus the global flags (kGlobalFlags);
// a usage error prints the one row. Flag values are parsed only by the typed
// getters on Args, so a malformed value is always "bad --<name>: ..." and
// exit 3 (docs/robustness.md has the exit-code taxonomy).
//
// Logs are read by one reader, ReadLogAuto: .bin (binary format), .xes (XES
// XML), a segment-store directory, anything else as the text event format.
// Text logs are memory-mapped and parsed in parallel; --threads controls
// both ingestion sharding and the miners, and the result is byte-identical
// for every value. Model edge files are plain text, one "From To" pair per
// line, '#' comments allowed.

#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "graph/ascii.h"
#include "graph/dot.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "log/binary_log.h"
#include "log/recovery.h"
#include "mine/performance.h"
#include "log/reader.h"
#include "log/segment_store.h"
#include "log/stats.h"
#include "log/validate.h"
#include "log/transform.h"
#include "log/writer.h"
#include "log/xes.h"
#include "log/streaming_reader.h"
#include "mine/conformance.h"
#include "mine/drift.h"
#include "mine/miner.h"
#include "mine/model_diff.h"
#include "mine/noise.h"
#include "mine/ooc_miner.h"
#include "mine/provenance.h"
#include "obs/registry.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "synth/drift_scenario.h"
#include "mine/reconstruct.h"
#include "mine/relations.h"
#include "mine/sequential_patterns.h"
#include "workflow/engine.h"
#include "workflow/fdl.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "util/atomic_file.h"
#include "util/budget.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/mapped_file.h"
#include "util/strings.h"

using namespace procmine;

namespace {

Status BadFlag(const std::string& key, const std::string& why) {
  return Status::InvalidArgument("bad --" + key + ": " + why);
}

/// Parsed command line: positional arguments and --key=value flags. The
/// typed getters are the one place a flag value is parsed: each returns
/// `fallback` when the flag is absent and InvalidArgument("bad --key: ...")
/// when its value is malformed or out of range.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  /// --key through `parse`, a function from the value to Result<T>.
  template <typename T, typename Parse>
  Result<T> Parsed(const std::string& key, T fallback, Parse parse) const {
    if (!Has(key)) return fallback;
    Result<T> value = parse(Get(key));
    if (!value.ok()) return BadFlag(key, value.status().message());
    return value;
  }
  /// --key as an integer of type T within [min, max].
  template <typename T = int64_t>
  Result<T> Int(const std::string& key, std::type_identity_t<T> fallback,
                std::type_identity_t<T> min = std::numeric_limits<T>::min(),
                std::type_identity_t<T> max =
                    std::numeric_limits<T>::max()) const {
    PROCMINE_ASSIGN_OR_RETURN(
        int64_t value, Parsed(key, static_cast<int64_t>(fallback), ParseInt64));
    if (Has(key) && (value < min || value > max)) {
      return BadFlag(key, value < min
                              ? StrFormat("must be >= %lld",
                                          static_cast<long long>(min))
                              : StrFormat("must be <= %lld",
                                          static_cast<long long>(max)));
    }
    return static_cast<T>(value);
  }
  /// --key in MiB, returned in bytes; `fallback` is in bytes.
  Result<int64_t> MiB(
      const std::string& key, int64_t fallback,
      int64_t min = std::numeric_limits<int64_t>::min()) const {
    if (!Has(key)) return fallback;
    constexpr int64_t kMaxMiB = std::numeric_limits<int64_t>::max() >> 20;
    PROCMINE_ASSIGN_OR_RETURN(
        int64_t mb, Int(key, 0, std::max(min, -kMaxMiB), kMaxMiB));
    return mb * (int64_t{1} << 20);
  }
  Result<double> Double(const std::string& key, double fallback) const {
    return Parsed(key, fallback, ParseDouble);
  }
  /// --threads as a pool size: auto (the default) is 0, which means
  /// hardware concurrency, as does any value <= 0.
  Result<int> Threads() const {
    if (Get("threads", "auto") == "auto") return 0;
    return Int<int>("threads", 0);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (StartsWith(arg, "--")) {
      size_t eq = arg.find('=');
      if (eq == std::string_view::npos) {
        args.flags[std::string(arg.substr(2))] = "";
      } else {
        args.flags[std::string(arg.substr(2, eq - 2))] =
            std::string(arg.substr(eq + 1));
      }
    } else {
      args.positional.emplace_back(arg);
    }
  }
  return args;
}

// Exit-code taxonomy (documented in docs/robustness.md). Analysis commands
// keep 1 for "the check itself failed" (non-conformal, model diff) so that
// scripts can tell a negative verdict from a broken input.
constexpr int kExitOk = 0;
constexpr int kExitMismatch = 1;
constexpr int kExitUsage = 2;
constexpr int kExitData = 3;
constexpr int kExitDegraded = 4;
constexpr int kExitInternal = 5;

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kIOError:
    case StatusCode::kDataLoss:
      return kExitData;
    default:
      return kExitInternal;
  }
}

/// Prints `status` and maps it to an exit code.
int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return ExitCodeForStatus(status);
}

/// Prints the usage of command `name` (a row of kCommands); exit 2.
int Usage(std::string_view name);

/// Resolves --recovery / --quarantine-out into a policy. --quarantine-out
/// implies quarantine; combining it with an explicit non-quarantine
/// --recovery is a contradiction and rejected.
Result<RecoveryPolicy> RecoveryFlag(const Args& args) {
  PROCMINE_ASSIGN_OR_RETURN(
      RecoveryPolicy policy,
      args.Parsed("recovery", RecoveryPolicy::kStrict, ParseRecoveryPolicy));
  if (args.Has("quarantine-out")) {
    if (args.Has("recovery") && policy != RecoveryPolicy::kQuarantine) {
      return Status::InvalidArgument(
          "--quarantine-out requires --recovery=quarantine (or omit "
          "--recovery)");
    }
    policy = RecoveryPolicy::kQuarantine;
  }
  return policy;
}

/// Parses --deadline-ms / --max-memory-mb / --max-executions, or the
/// --session-* family when `prefix` is "session-".
Result<RunBudget::Limits> BudgetLimitsFromArgs(const Args& args,
                                               const std::string& prefix = "") {
  RunBudget::Limits limits;
  PROCMINE_ASSIGN_OR_RETURN(
      limits.deadline_ms, args.Int(prefix + "deadline-ms", limits.deadline_ms));
  PROCMINE_ASSIGN_OR_RETURN(
      limits.max_memory_bytes,
      args.MiB(prefix + "max-memory-mb", limits.max_memory_bytes));
  PROCMINE_ASSIGN_OR_RETURN(
      limits.max_executions,
      args.Int(prefix + "max-executions", limits.max_executions));
  return limits;
}

/// Store knobs shared by synth --stream-out, mine <store>, --spill-dir,
/// stats and convert: the recovery policy, --segment-events (seal size) and
/// --resident-mb (reader cache bound; defaults to a quarter of the budget's
/// memory limit when one is set), plus the writer's spill budget.
Result<SegmentStoreOptions> StoreOptionsFromArgs(const Args& args,
                                                 RunBudget* budget) {
  SegmentStoreOptions options;
  PROCMINE_ASSIGN_OR_RETURN(options.recovery, RecoveryFlag(args));
  options.budget = budget;
  PROCMINE_ASSIGN_OR_RETURN(
      options.target_segment_events,
      args.Int("segment-events", options.target_segment_events, 1));
  if (args.Has("resident-mb")) {
    PROCMINE_ASSIGN_OR_RETURN(options.max_resident_bytes,
                              args.MiB("resident-mb", 0, 1));
  } else if (budget != nullptr && budget->limits().max_memory_bytes > 0) {
    // Leave most of the budget to the mining accumulators and one decoded
    // window; the cache always keeps at least the current segment resident.
    options.max_resident_bytes =
        std::max<int64_t>(budget->limits().max_memory_bytes / 4, 1 << 20);
  }
  return options;
}

/// Opens the segment store at `dir` with the store flags.
Result<SegmentStore> OpenStore(const std::string& dir, const Args& args) {
  PROCMINE_ASSIGN_OR_RETURN(SegmentStoreOptions options,
                            StoreOptionsFromArgs(args, nullptr));
  return SegmentStore::Open(dir, options);
}

/// Writes the --quarantine-out sidecar from `report` and summarizes any loss
/// on stderr.
Status FinishIngestion(const IngestionReport& report, const Args& args) {
  if (args.Has("quarantine-out")) {
    PROCMINE_RETURN_NOT_OK(
        WriteQuarantineFile(args.Get("quarantine-out"), report));
    std::fprintf(stderr, "wrote quarantine to %s\n",
                 args.Get("quarantine-out").c_str());
  }
  if (report.AnyLoss()) {
    std::fprintf(stderr, "%s", report.SummaryText().c_str());
  }
  return Status::OK();
}

/// The one log reader: .bin, .xes, a segment-store directory (materialized)
/// or the text format, honoring --recovery / --quarantine-out. When the
/// caller passes a report sink it receives the full IngestionReport.
Result<EventLog> ReadLogAuto(const std::string& path, const Args& args,
                             IngestionReport* report_out = nullptr) {
  PROCMINE_ASSIGN_OR_RETURN(RecoveryPolicy policy, RecoveryFlag(args));
  PROCMINE_ASSIGN_OR_RETURN(int threads, args.Threads());
  IngestionReport local;
  IngestionReport* report = report_out != nullptr ? report_out : &local;
  report->policy = policy;
  Result<EventLog> log = Status::Internal("unreachable");
  if (IsSegmentStoreDir(path)) {
    PROCMINE_ASSIGN_OR_RETURN(SegmentStore store, OpenStore(path, args));
    log = store.Materialize();
    *report = store.report();
  } else if (EndsWith(path, ".bin")) {
    BinaryDecodeOptions options;
    options.recovery = policy;
    options.report = report;
    log = ReadBinaryLogFile(path, options);
  } else if (EndsWith(path, ".xes")) {
    if (policy != RecoveryPolicy::kStrict) {
      std::fprintf(stderr, "note: --recovery does not apply to .xes inputs\n");
    }
    log = ReadXesFile(path);
  } else {
    // Text ingestion shards across --threads workers; the parsed log, the
    // report, and the quarantine bytes are identical for any thread count.
    LogParseOptions options;
    options.num_threads = threads;
    options.recovery = policy;
    options.report = report;
    log = LogReader::ReadFile(path, options);
  }
  if (!log.ok()) return log;
  PROCMINE_RETURN_NOT_OK(FinishIngestion(*report, args));
  return log;
}

Status WriteLogAuto(const EventLog& log, const std::string& path) {
  if (EndsWith(path, ".bin")) return WriteBinaryLogFile(log, path);
  if (EndsWith(path, ".xes")) return WriteXesFile(log, path);
  if (EndsWith(path, ".csv")) return LogWriter::WriteCsvFile(log, path);
  return LogWriter::WriteFile(log, path);
}

Result<ProcessGraph> ReadEdgeListModel(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IOError("cannot open: " + path);
  std::vector<std::pair<std::string, std::string>> edges;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(file, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(trimmed);
    if (fields.size() != 2) {
      return Status::InvalidArgument(
          StrFormat("%s:%lld: expected 'From To'", path.c_str(),
                    static_cast<long long>(line_no)));
    }
    edges.emplace_back(fields[0], fields[1]);
  }
  return ProcessGraph::FromNamedEdges(edges);
}

/// The mining flags of mine, explain and report: --algorithm, --threshold,
/// --threads and --chunk-size. --threshold=auto is left to AutoThreshold,
/// which needs the log.
Result<MinerOptions> MinerOptionsFromArgs(const Args& args) {
  static const std::map<std::string, MinerAlgorithm> kAlgorithms = {
      {"auto", MinerAlgorithm::kAuto},
      {"special", MinerAlgorithm::kSpecialDag},
      {"general", MinerAlgorithm::kGeneralDag},
      {"cyclic", MinerAlgorithm::kCyclic}};
  MinerOptions options;
  const std::string algorithm = args.Get("algorithm", "auto");
  auto it = kAlgorithms.find(algorithm);
  if (it == kAlgorithms.end()) {
    return Status::InvalidArgument("unknown --algorithm: " + algorithm);
  }
  options.algorithm = it->second;
  if (args.Get("threshold") != "auto") {
    PROCMINE_ASSIGN_OR_RETURN(options.noise_threshold,
                              args.Int("threshold", 1));
  }
  // The model is byte-identical for any thread count and chunk size.
  PROCMINE_ASSIGN_OR_RETURN(options.num_threads, args.Threads());
  PROCMINE_ASSIGN_OR_RETURN(int64_t chunk, args.Int("chunk-size", 0, 0));
  options.chunk_size = static_cast<size_t>(chunk);
  return options;
}

/// --threshold=auto: the Section 6 threshold estimated from the whole log.
/// Returns the log relations the estimate came from, so a report need not
/// walk the log again; empty without --threshold=auto.
std::optional<Relations> AutoThreshold(const Args& args, const EventLog& log,
                                       MinerOptions* options) {
  if (args.Get("threshold") != "auto") return std::nullopt;
  Relations relations = Relations::Compute(log);
  const double epsilon = relations.epsilon();
  options->noise_threshold = SuggestNoiseThreshold(
      static_cast<int64_t>(log.num_executions()), epsilon);
  std::fprintf(stderr, "estimated noise rate %.4f -> threshold %lld\n",
               epsilon, static_cast<long long>(options->noise_threshold));
  return relations;
}

/// Parses --sweep=T1,T2,... into RunReportOptions::sweep.
Result<std::vector<int64_t>> ParseSweep(std::string_view spec) {
  std::vector<int64_t> sweep;
  for (const std::string& field : Split(spec, ',')) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t t, ParseInt64(field));
    sweep.push_back(t);
  }
  return sweep;
}

/// The report flags: --sweep and --unstable-cutoff. The caller sets the
/// miner options once --threshold is resolved.
Result<obs::RunReportOptions> ReportOptionsFromArgs(const Args& args) {
  obs::RunReportOptions options;
  PROCMINE_ASSIGN_OR_RETURN(
      options.sweep,
      args.Parsed("sweep", std::vector<int64_t>{}, ParseSweep));
  PROCMINE_ASSIGN_OR_RETURN(
      options.unstable_cutoff,
      args.Double("unstable-cutoff", options.unstable_cutoff));
  return options;
}

/// Writes the JSON / annotated-DOT artifacts named by `json_flag` and
/// `dot_flag`. Atomic: a crash or injected fault mid-write never leaves a
/// torn file at the target path.
Status WriteReportArtifacts(const obs::RunReport& report, const Args& args,
                            const std::string& json_flag,
                            const std::string& dot_flag) {
  if (args.Has(json_flag)) {
    if (auto fp = PROCMINE_FAILPOINT("report.write"); fp) {
      return fp.ToStatus("report.write");
    }
    PROCMINE_RETURN_NOT_OK(
        WriteFileAtomic(args.Get(json_flag), report.ToJson()));
    std::fprintf(stderr, "wrote run report to %s\n",
                 args.Get(json_flag).c_str());
  }
  if (args.Has(dot_flag)) {
    PROCMINE_RETURN_NOT_OK(
        WriteFileAtomic(args.Get(dot_flag), report.ToAnnotatedDot()));
    std::fprintf(stderr, "wrote annotated dot to %s\n",
                 args.Get(dot_flag).c_str());
  }
  return Status::OK();
}

/// Common tail for budget-carrying commands: a clean run exits 0, a
/// degraded one announces what was cut and exits 4.
int FinishWithDegradation(const DegradationInfo& degradation) {
  if (!degradation.degraded) return kExitOk;
  std::fprintf(stderr, "DEGRADED: %s budget exhausted at %s; %s\n",
               std::string(BudgetResourceName(degradation.resource)).c_str(),
               degradation.cut_phase.c_str(), degradation.dropped.c_str());
  return kExitDegraded;
}

/// One stderr line of store footprint, shared by `stats` and the post-mine
/// summary.
void PrintFootprint(const SegmentStoreFootprint& fp, FILE* out) {
  std::fprintf(out,
               "store: %lld segments, %lld executions, %lld events, "
               "%.1f MiB on disk (~%.1f MiB decoded, %.2fx)\n",
               static_cast<long long>(fp.segments),
               static_cast<long long>(fp.executions),
               static_cast<long long>(fp.events),
               static_cast<double>(fp.disk_bytes) / (1 << 20),
               static_cast<double>(fp.estimated_memory_bytes) / (1 << 20),
               fp.CompressionRatio());
  std::fprintf(out,
               "cache: %lld/%lld segments resident (%.1f of %.1f MiB, "
               "peak %.1f), %lld loads, %lld evictions\n",
               static_cast<long long>(fp.resident_segments),
               static_cast<long long>(fp.segments),
               static_cast<double>(fp.resident_bytes) / (1 << 20),
               static_cast<double>(fp.max_resident_bytes) / (1 << 20),
               static_cast<double>(fp.peak_resident_bytes) / (1 << 20),
               static_cast<long long>(fp.loads),
               static_cast<long long>(fp.evictions));
}

/// The output tail of every mine source: model summary, stdout DOT or
/// ASCII, --dot sidecar, degradation exit code.
Result<int> EmitModel(const ProcessGraph& model, const Args& args,
                      const DegradationInfo& degradation) {
  std::fprintf(stderr, "mined %lld edges over %d activities\n",
               static_cast<long long>(model.graph().num_edges()),
               model.num_activities());
  if (args.Has("ascii")) {
    std::cout << RenderAscii(model.graph(), model.names());
  } else {
    std::cout << model.ToDot("mined_process");
  }
  if (args.Has("dot")) {
    PROCMINE_RETURN_NOT_OK(
        WriteDotFile(model.graph(), model.names(), args.Get("dot")));
  }
  return FinishWithDegradation(degradation);
}

/// Streams a text log (or converts a .bin/.xes one) into a new segment
/// store at `dir`. Text ingestion never materializes the log: the writer's
/// RSS probe seals segments at the budget's memory high-water mark.
Status SpillLog(const std::string& path, const std::string& dir,
                const Args& args, const SegmentStoreOptions& options) {
  PROCMINE_PHASE("ingest.spill");
  if (EndsWith(path, ".bin") || EndsWith(path, ".xes")) {
    // Binary/XES decoding is already one bounded pass; materialize and
    // convert through the writer.
    PROCMINE_ASSIGN_OR_RETURN(EventLog log, ReadLogAuto(path, args));
    PROCMINE_ASSIGN_OR_RETURN(SegmentedLogWriter writer,
                              SegmentedLogWriter::Create(dir, options));
    PROCMINE_RETURN_NOT_OK(writer.AppendLog(log));
    return writer.Finish();
  }
  PROCMINE_ASSIGN_OR_RETURN(SegmentedLogWriter writer,
                            SegmentedLogWriter::Create(dir, options));
  IngestionReport ingestion;
  ingestion.policy = options.recovery;
  StreamOptions stream_options;
  stream_options.recovery = options.recovery;
  stream_options.report = &ingestion;
  PROCMINE_RETURN_NOT_OK(
      StreamLogFile(
          path,
          [&](const Execution& exec, const ActivityDictionary& dict) {
            return writer.Append(exec, dict);
          },
          stream_options)
          .status());
  PROCMINE_RETURN_NOT_OK(writer.Finish());
  PROCMINE_RETURN_NOT_OK(FinishIngestion(ingestion, args));
  std::fprintf(stderr,
               "spilled %lld executions (%lld events) into %lld segments "
               "at %s (%lld budget-forced seals)\n",
               static_cast<long long>(writer.executions()),
               static_cast<long long>(writer.events()),
               static_cast<long long>(writer.segments_sealed()), dir.c_str(),
               static_cast<long long>(writer.spill_seals()));
  return Status::OK();
}

/// `mine` over one of three sources: a segment-store directory, mined out
/// of core in bounded-resident windows; a text log that --spill-dir first
/// streams into such a store (left behind for reuse; a failed spill removes
/// the directory when this run created it); or a log read whole into
/// memory. The model is byte-identical for all three. Every flag is parsed,
/// and the whole-log-only flags are refused for the store sources, before
/// any I/O; one budget covers the whole run, ingestion included.
Result<int> CommandMine(const Args& args) {
  if (args.positional.empty()) return Usage("mine");
  const std::string& path = args.positional[0];
  const bool spill = args.Has("spill-dir");
  const bool is_store = IsSegmentStoreDir(path);
  if (spill && is_store) {
    std::cerr << "--spill-dir applies to text logs; '" << path
              << "' is already a segment store\n";
    return kExitUsage;
  }
  const bool out_of_core = spill || is_store;
  if (out_of_core) {
    for (const char* flag : {"report-out", "report-dot", "conditions", "fdl"}) {
      if (args.Has(flag)) {
        std::cerr << "--" << flag
                  << " needs the whole log in memory; materialize first "
                     "(procmine convert <store> <log>) or mine the text log\n";
        return kExitUsage;
      }
    }
    if (args.Get("threshold") == "auto") {
      return Status::InvalidArgument(
          "--threshold=auto needs the whole log in memory; pass an explicit "
          "threshold when mining a segment store");
    }
  }
  PROCMINE_ASSIGN_OR_RETURN(RunBudget::Limits limits,
                            BudgetLimitsFromArgs(args));
  RunBudget budget(limits);
  DegradationInfo degradation;
  PROCMINE_ASSIGN_OR_RETURN(MinerOptions options, MinerOptionsFromArgs(args));
  options.budget = &budget;
  options.degradation = &degradation;
  PROCMINE_ASSIGN_OR_RETURN(obs::RunReportOptions report_options,
                            ReportOptionsFromArgs(args));
  PROCMINE_ASSIGN_OR_RETURN(SegmentStoreOptions store_options,
                            StoreOptionsFromArgs(args, &budget));
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);

  if (out_of_core) {
    const std::string dir = spill ? args.Get("spill-dir") : path;
    if (spill) {
      std::error_code error;
      const bool created = !std::filesystem::exists(dir, error) && !error;
      Status st = SpillLog(path, dir, args, store_options);
      if (!st.ok()) {
        if (created) std::filesystem::remove_all(dir, error);
        return st;
      }
    }
    PROCMINE_ASSIGN_OR_RETURN(SegmentStore store,
                              SegmentStore::Open(dir, store_options));
    OocMineStats stats;
    PROCMINE_ASSIGN_OR_RETURN(ProcessGraph model,
                              OutOfCoreMiner(options).Mine(&store, &stats));
    // A spill wrote its sidecar from the text it streamed.
    if (!spill) PROCMINE_RETURN_NOT_OK(FinishIngestion(store.report(), args));
    std::fprintf(stderr, "mined out of core: %lld window loads over %lld "
                 "executions (%lld events)\n",
                 static_cast<long long>(stats.windows),
                 static_cast<long long>(stats.executions),
                 static_cast<long long>(stats.events));
    PrintFootprint(store.Footprint(), stderr);
    return EmitModel(model, args, degradation);
  }

  IngestionReport ingestion;
  obs::SetCurrentPhase("ingest");
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(path, args, &ingestion));
  obs::SetCurrentPhase("mine");
  const std::optional<Relations> relations = AutoThreshold(args, log, &options);
  ProcessMiner miner(options);

  // --report-out / --report-dot: mine once with provenance recording and
  // reuse the report's model below instead of mining again.
  std::optional<ProcessGraph> model;
  if (args.Has("report-out") || args.Has("report-dot")) {
    report_options.miner = options;
    report_options.relations = relations.has_value() ? &*relations : nullptr;
    if (ingestion.policy != RecoveryPolicy::kStrict) {
      report_options.ingestion = &ingestion;
    }
    PROCMINE_ASSIGN_OR_RETURN(obs::RunReport report,
                              obs::BuildRunReport(log, report_options));
    degradation = report.degradation;
    PROCMINE_RETURN_NOT_OK(
        WriteReportArtifacts(report, args, "report-out", "report-dot"));
    model = std::move(report.model);
  }

  if (args.Has("conditions")) {
    PROCMINE_ASSIGN_OR_RETURN(AnnotatedProcess annotated,
                              miner.MineWithConditions(log));
    const std::string dot = annotated.ToDot("mined_process");
    std::cout << dot;
    if (args.Has("fdl")) {
      // Export the mined model as a runnable FDL definition.
      PROCMINE_ASSIGN_OR_RETURN(ProcessDefinition reconstructed,
                                ReconstructDefinition(annotated, log));
      PROCMINE_RETURN_NOT_OK(
          WriteFdlFile(reconstructed, args.Get("fdl"), "mined"));
      std::fprintf(stderr, "wrote runnable definition to %s\n",
                   args.Get("fdl").c_str());
    }
    for (const MinedCondition& c : annotated.conditions) {
      if (c.learned) {
        std::fprintf(stderr, "condition %s -> %s: %s (holdout %.3f)\n",
                     annotated.graph.name(c.edge.from).c_str(),
                     annotated.graph.name(c.edge.to).c_str(),
                     c.rule.c_str(), c.test_accuracy);
      }
    }
    if (args.Has("dot")) {
      PROCMINE_RETURN_NOT_OK(WriteFileAtomic(args.Get("dot"), dot));
    }
    return FinishWithDegradation(degradation);
  }

  if (!model.has_value()) {
    PROCMINE_ASSIGN_OR_RETURN(model, miner.Mine(log));
  }
  return EmitModel(*model, args, degradation);
}

Result<int> CommandCheck(const Args& args) {
  if (args.positional.empty() || !args.Has("model")) return Usage("check");
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph model,
                            ReadEdgeListModel(args.Get("model")));
  // Align the model's ids with the log's dictionary by name.
  DirectedGraph aligned(log.num_activities());
  std::vector<std::string> names = log.dictionary().names();
  for (const Edge& e : model.graph().Edges()) {
    auto from = log.dictionary().Find(model.name(e.from));
    auto to = log.dictionary().Find(model.name(e.to));
    if (!from.ok() || !to.ok()) {
      // Model activity never appears in the log: extend the vertex set.
      NodeId f = from.ok() ? *from : aligned.AddNode();
      if (!from.ok()) names.push_back(model.name(e.from));
      NodeId t = to.ok() ? *to : aligned.AddNode();
      if (!to.ok()) names.push_back(model.name(e.to));
      aligned.AddEdge(f, t);
      continue;
    }
    aligned.AddEdge(*from, *to);
  }
  ProcessGraph aligned_model(std::move(aligned), names);
  ConformanceChecker checker(&aligned_model);
  ConformanceReport report = checker.CheckLog(log);
  std::cout << report.Summary(log.dictionary());
  return report.conformal() ? kExitOk : kExitMismatch;
}

Result<int> CommandDiff(const Args& args) {
  if (args.positional.empty() || !args.Has("model")) return Usage("diff");
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph designed,
                            ReadEdgeListModel(args.Get("model")));
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph mined, ProcessMiner().Mine(log));
  ModelDiff diff = DiffModels(designed, mined);
  if (args.Has("json")) {
    // Machine-readable mode: canonically sorted discrepancies as JSON, to
    // stdout or (atomically) to the named file.
    if (args.Get("json").empty()) {
      std::cout << diff.ToJson();
    } else {
      PROCMINE_RETURN_NOT_OK(WriteFileAtomic(args.Get("json"), diff.ToJson()));
      std::fprintf(stderr, "wrote diff to %s\n", args.Get("json").c_str());
    }
  } else {
    std::cout << diff.Summary();
  }
  return diff.structurally_equal() ? kExitOk : kExitMismatch;
}

Result<int> CommandMonitor(const Args& args) {
  if (args.positional.empty()) return Usage("monitor");
  const std::string& path = args.positional[0];

  DriftOptions options;
  PROCMINE_ASSIGN_OR_RETURN(options.window_executions,
                            args.Int("window-executions", 100));
  PROCMINE_ASSIGN_OR_RETURN(options.slide, args.Int("slide", 0));
  PROCMINE_ASSIGN_OR_RETURN(options.min_final_window,
                            args.Int("min-final-window", 0));
  if (options.window_executions < 2 || options.slide < 0 ||
      options.slide > options.window_executions ||
      options.min_final_window < 0) {
    std::cerr << "need --window-executions >= 2 and 0 <= --slide <= "
                 "--window-executions\n";
    return kExitUsage;
  }
  // auto (the default) is 0: the Section 6 optimum T* per window.
  if (args.Get("threshold", "auto") != "auto") {
    PROCMINE_ASSIGN_OR_RETURN(options.noise_threshold,
                              args.Int("threshold", 0));
  }
  PROCMINE_ASSIGN_OR_RETURN(options.epsilon,
                            args.Double("epsilon", options.epsilon));
  PROCMINE_ASSIGN_OR_RETURN(options.bound_cutoff,
                            args.Double("bound-cutoff", options.bound_cutoff));
  PROCMINE_ASSIGN_OR_RETURN(RecoveryPolicy policy, RecoveryFlag(args));

  std::optional<obs::ModelRegistry> registry;
  if (args.Has("registry-dir")) {
    PROCMINE_ASSIGN_OR_RETURN(
        registry, obs::ModelRegistry::Open(args.Get("registry-dir")));
  }
  DriftMonitor monitor(options,
                       registry.has_value() ? &*registry : nullptr);

  // --stream scans text logs execution-by-execution in bounded memory and
  // feeds them in file order; the default path parses the whole log first
  // (sharded across --threads) and feeds them in instance-name order. The
  // monitor mines sequentially either way, so registry, alerts, and report
  // are byte-identical for any thread count, and for both paths whenever
  // instance names sort in file order.
  obs::SetCurrentPhase("monitor.ingest");
  if (args.Has("stream")) {
    if (EndsWith(path, ".bin") || EndsWith(path, ".xes")) {
      std::cerr << "--stream applies to text logs only\n";
      return kExitUsage;
    }
    StreamOptions stream_options;
    stream_options.recovery = policy;
    PROCMINE_RETURN_NOT_OK(
        StreamLogFile(
            path,
            [&monitor](const Execution& exec, const ActivityDictionary& dict) {
              return monitor.Add(exec, dict);
            },
            stream_options)
            .status());
  } else {
    PROCMINE_ASSIGN_OR_RETURN(EventLog log, ReadLogAuto(path, args));
    PROCMINE_RETURN_NOT_OK(monitor.AddLog(log));
  }
  PROCMINE_RETURN_NOT_OK(monitor.Finish());

  // Deterministic JSON-lines alert feed.
  std::string feed;
  for (const DriftAlert& alert : monitor.alerts()) {
    feed += alert.ToJsonLine();
  }
  if (args.Has("alerts-out")) {
    PROCMINE_RETURN_NOT_OK(WriteFileAtomic(args.Get("alerts-out"), feed));
    std::fprintf(stderr, "wrote %zu alerts to %s\n", monitor.alerts().size(),
                 args.Get("alerts-out").c_str());
  } else {
    std::cout << feed;
  }

  DriftReport report = monitor.BuildReport(path);
  if (args.Has("report-out")) {
    PROCMINE_RETURN_NOT_OK(
        WriteFileAtomic(args.Get("report-out"), report.ToJson()));
    std::fprintf(stderr, "wrote drift report to %s\n",
                 args.Get("report-out").c_str());
  }
  std::fprintf(stderr,
               "monitored %lld executions in %lld windows: %zu alerts%s\n",
               static_cast<long long>(monitor.num_executions()),
               static_cast<long long>(monitor.num_windows()),
               monitor.alerts().size(),
               registry.has_value()
                   ? StrFormat(", registry at v%lld",
                               static_cast<long long>(
                                   registry->latest_version()))
                         .c_str()
                   : "");
  // Like check/diff: a negative verdict (drift found) is exit 1, so scripts
  // can tell "the process moved" from "the monitor broke".
  return report.drift_detected() ? kExitMismatch : kExitOk;
}

/// Prints a segment store's footprint and per-segment damage table from the
/// manifest alone: no segment is decoded, so this stays cheap at any store
/// size. --verify-crc additionally checksums each file's payload (reads
/// bytes, decodes nothing).
Result<int> PrintStoreStats(const std::string& dir, const Args& args) {
  PROCMINE_ASSIGN_OR_RETURN(SegmentStore store, OpenStore(dir, args));
  SegmentStoreFootprint fp = store.Footprint();
  std::printf("segment store %s\n", dir.c_str());
  std::printf("  activities:       %d\n", store.dictionary().size());
  std::printf("  segments:         %lld\n",
              static_cast<long long>(fp.segments));
  std::printf("  executions:       %lld\n",
              static_cast<long long>(fp.executions));
  std::printf("  events:           %lld\n",
              static_cast<long long>(fp.events));
  std::printf("  on-disk bytes:    %lld (%.1f MiB)\n",
              static_cast<long long>(fp.disk_bytes),
              static_cast<double>(fp.disk_bytes) / (1 << 20));
  std::printf("  decoded estimate: %lld (%.1f MiB, %.2fx on-disk)\n",
              static_cast<long long>(fp.estimated_memory_bytes),
              static_cast<double>(fp.estimated_memory_bytes) / (1 << 20),
              fp.CompressionRatio());
  std::printf("  resident bound:   %.1f MiB (%lld segments resident, "
              "%lld loads, %lld hits, %lld evictions)\n",
              static_cast<double>(fp.max_resident_bytes) / (1 << 20),
              static_cast<long long>(fp.resident_segments),
              static_cast<long long>(fp.loads),
              static_cast<long long>(fp.cache_hits),
              static_cast<long long>(fp.evictions));
  std::printf("  reader cache:     max_resident_bytes=%lld recovery=%s\n",
              static_cast<long long>(fp.max_resident_bytes),
              std::string(RecoveryPolicyName(store.report().policy)).c_str());

  const bool verify_crc = args.Has("verify-crc");
  int64_t damaged = 0;
  int64_t executions_at_risk = 0;
  std::printf("  segments (executions, disk bytes, status%s):\n",
              verify_crc ? "; --verify-crc on" : "");
  for (const SegmentInfo& info : store.segments()) {
    const std::string path = dir + "/" + info.file;
    std::string status = "ok";
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) {
      status = "missing";
    } else if (st.st_size != info.disk_bytes) {
      status = StrFormat("size-mismatch (%lld on disk, manifest %lld)",
                         static_cast<long long>(st.st_size),
                         static_cast<long long>(info.disk_bytes));
    } else if (verify_crc) {
      auto mapped = MappedFile::Open(path);
      if (!mapped.ok()) {
        status = StrFormat("unreadable (%s)",
                           mapped.status().message().c_str());
      } else {
        Status crc = segment_internal::VerifySegmentChecksum(mapped->data());
        if (!crc.ok()) status = std::string(crc.message());
      }
    }
    if (status != "ok") {
      ++damaged;
      executions_at_risk += info.executions;
    }
    std::printf("    %-24s %10lld %12lld  %s\n", info.file.c_str(),
                static_cast<long long>(info.executions),
                static_cast<long long>(info.disk_bytes), status.c_str());
  }
  if (damaged > 0) {
    std::printf("  damage:           %lld of %lld segments damaged, up to "
                "%lld executions at risk (mine with --recovery=skip or "
                "quarantine to salvage)\n",
                static_cast<long long>(damaged),
                static_cast<long long>(fp.segments),
                static_cast<long long>(executions_at_risk));
  }
  return kExitOk;
}

Result<int> CommandStats(const Args& args) {
  if (args.positional.empty()) return Usage("stats");
  if (IsSegmentStoreDir(args.positional[0])) {
    return PrintStoreStats(args.positional[0], args);
  }
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  LogStats stats = ComputeLogStats(log);
  std::cout << stats.ToString(log.dictionary());
  std::vector<LogIssue> issues = ValidateLog(log);
  if (issues.empty()) {
    std::cout << "validation: clean\n";
  } else {
    std::cout << "validation: " << issues.size() << " issues\n";
    for (const LogIssue& issue : issues) {
      std::cout << "  " << issue.process_instance << ": "
                << ToString(issue.kind) << " " << issue.detail << "\n";
    }
  }
  return kExitOk;
}

/// `procmine top <status-file>`: one-shot pretty-printer for the heartbeat
/// file a `--status-file` run keeps rewriting. Exit 0 when the run looks
/// alive, 1 when the heartbeat is stale (likely hung or dead), 3 when the
/// file is unreadable or unparseable.
Result<int> CommandTop(const Args& args) {
  if (args.positional.empty()) return Usage("top");
  std::ifstream in(args.positional[0]);
  if (!in) {
    return Status::IOError(
        StrFormat("cannot read status file %s", args.positional[0].c_str()));
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  PROCMINE_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));

  auto num = [](const json::Value* obj, std::string_view key) -> int64_t {
    if (obj == nullptr) return 0;
    const json::Value* v = obj->Find(key);
    return v != nullptr && v->is_number() ? v->AsInt64() : 0;
  };
  auto str = [](const json::Value* obj, std::string_view key) -> std::string {
    if (obj == nullptr) return "";
    const json::Value* v = obj->Find(key);
    return v != nullptr && v->is_string() ? v->AsString() : "";
  };
  auto mib = [](int64_t bytes) {
    return static_cast<double>(bytes) / (1 << 20);
  };
  const json::Value* root = &doc;
  const json::Value* progress = root->Find("progress");
  const json::Value* budget = root->Find("budget");
  const json::Value* cache = root->Find("cache");
  const json::Value* process = root->Find("process");

  const int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::system_clock::now()
                                 .time_since_epoch())
                             .count();
  const int64_t heartbeat_ms = num(root, "heartbeat_unix_ms");
  const int64_t interval_ms = std::max<int64_t>(num(root, "interval_ms"), 1);
  const int64_t age_ms = std::max<int64_t>(now_ms - heartbeat_ms, 0);
  // A live sampler rewrites the file every interval; allow generous jitter
  // before declaring the run hung.
  const bool stale = age_ms > std::max<int64_t>(4 * interval_ms, 2000);

  std::printf("procmine pid %lld  %s %s\n",
              static_cast<long long>(num(root, "pid")),
              str(root, "command").c_str(), str(root, "source").c_str());
  std::printf("  phase:     %-24s heartbeat %.1fs ago%s\n",
              str(root, "phase").c_str(),
              static_cast<double>(age_ms) / 1000.0,
              stale ? "  ** STALE: run may be hung or dead **" : "");
  std::printf("  uptime:    %.1fs  sample %lld  interval %lldms\n",
              static_cast<double>(num(root, "uptime_ms")) / 1000.0,
              static_cast<long long>(num(root, "seq")),
              static_cast<long long>(interval_ms));
  const int64_t total = num(progress, "executions_total");
  const int64_t scanned = num(progress, "executions_scanned");
  if (total > 0) {
    std::printf("  progress:  %lld executions read, %lld/%lld scanned "
                "(%.1f%%), %lld/%lld windows\n",
                static_cast<long long>(num(progress, "executions_read")),
                static_cast<long long>(scanned),
                static_cast<long long>(total),
                100.0 * static_cast<double>(scanned) /
                    static_cast<double>(total),
                static_cast<long long>(num(progress, "windows_visited")),
                static_cast<long long>(num(progress, "windows_total")));
  } else {
    std::printf("  progress:  %lld executions read, %lld scanned\n",
                static_cast<long long>(num(progress, "executions_read")),
                static_cast<long long>(scanned));
  }
  if (budget != nullptr && budget->is_object()) {
    std::string exhausted = str(budget, "exhausted");
    std::printf("  budget:    deadline %lldms (headroom %lldms), "
                "memory %.1f MiB (headroom %.1f MiB), exhausted: %s\n",
                static_cast<long long>(num(budget, "deadline_ms")),
                static_cast<long long>(num(budget, "deadline_headroom_ms")),
                mib(num(budget, "max_memory_bytes")),
                mib(num(budget, "memory_headroom_bytes")),
                exhausted.empty() ? "none" : exhausted.c_str());
  }
  if (cache != nullptr && cache->is_object()) {
    std::printf("  cache:     %.1f MiB resident, %lld loads, %lld hits, "
                "%lld evictions, %lld spill seals\n",
                mib(num(cache, "resident_bytes")),
                static_cast<long long>(num(cache, "loads")),
                static_cast<long long>(num(cache, "hits")),
                static_cast<long long>(num(cache, "evictions")),
                static_cast<long long>(num(cache, "spill_seals")));
    if (num(cache, "salvage_events") > 0) {
      std::printf("  salvage:   %lld events, %lld salvaged, %lld lost\n",
                  static_cast<long long>(num(cache, "salvage_events")),
                  static_cast<long long>(num(cache, "salvaged_executions")),
                  static_cast<long long>(num(cache, "lost_executions")));
    }
  }
  if (process != nullptr && process->is_object()) {
    const json::Value* cpu_user = process->Find("cpu_user_s");
    const json::Value* cpu_sys = process->Find("cpu_system_s");
    const double cpu =
        (cpu_user != nullptr && cpu_user->is_number() ? cpu_user->AsDouble()
                                                      : 0.0) +
        (cpu_sys != nullptr && cpu_sys->is_number() ? cpu_sys->AsDouble()
                                                    : 0.0);
    std::printf("  process:   rss %.1f MiB, cpu %.1fs, %lld threads, "
                "%lld fds, io read %.1f MiB written %.1f MiB\n",
                mib(num(process, "rss_bytes")), cpu,
                static_cast<long long>(num(process, "threads")),
                static_cast<long long>(num(process, "open_fds")),
                mib(std::max<int64_t>(num(process, "io_read_bytes"), 0)),
                mib(std::max<int64_t>(num(process, "io_write_bytes"), 0)));
  }
  return stale ? kExitMismatch : kExitOk;
}

Result<int> CommandVariants(const Args& args) {
  if (args.positional.empty()) return Usage("variants");
  PROCMINE_ASSIGN_OR_RETURN(int64_t top, args.Int("top", 20));
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  std::vector<int64_t> multiplicity;
  EventLog variants = DeduplicateSequences(log, &multiplicity);
  // Sort variant indices by multiplicity, descending.
  std::vector<size_t> order(variants.num_executions());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return multiplicity[a] > multiplicity[b];
  });
  std::printf("%zu executions, %zu distinct variants\n",
              log.num_executions(), variants.num_executions());
  for (size_t rank = 0;
       rank < order.size() && rank < static_cast<size_t>(top); ++rank) {
    const Execution& exec = variants.execution(order[rank]);
    std::string flat;
    for (ActivityId a : exec.Sequence()) {
      if (!flat.empty()) flat += " ";
      flat += variants.dictionary().Name(a);
    }
    std::printf("%6lld x  %s\n",
                static_cast<long long>(multiplicity[order[rank]]),
                flat.c_str());
  }
  return kExitOk;
}

/// Mines with `mine`'s flags and a provenance recorder attached, then
/// renders the recorder: the step-by-step narration, or one --edge verdict.
Result<int> CommandExplain(const Args& args) {
  if (args.positional.empty()) return Usage("explain");
  std::vector<std::string> edge;
  if (args.Has("edge")) {
    edge = Split(args.Get("edge"), ',');
    if (edge.size() != 2) {
      std::cerr << "--edge expects From,To\n";
      return kExitUsage;
    }
  }
  PROCMINE_ASSIGN_OR_RETURN(MinerOptions options, MinerOptionsFromArgs(args));
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  AutoThreshold(args, log, &options);
  ProvenanceRecorder recorder;
  options.provenance = &recorder;
  PROCMINE_RETURN_NOT_OK(ProcessMiner(options).Mine(log).status());
  if (edge.empty()) {
    std::cout << NarrateMining(recorder);
    return kExitOk;
  }
  PROCMINE_ASSIGN_OR_RETURN(std::string why,
                            ExplainEdge(recorder, log, edge[0], edge[1]));
  std::cout << why;
  return kExitOk;
}

Result<int> CommandPerf(const Args& args) {
  if (args.positional.empty()) return Usage("perf");
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  PROCMINE_ASSIGN_OR_RETURN(ProcessGraph model, ProcessMiner().Mine(log));
  PerformanceReport report = AnalyzePerformance(model, log);
  std::cout << report.Summary(log.dictionary());
  if (args.Has("dot")) {
    PROCMINE_RETURN_NOT_OK(
        WriteFileAtomic(args.Get("dot"), PerformanceDot(model, report)));
  }
  return kExitOk;
}

Result<int> CommandNoise(const Args& args) {
  if (args.positional.empty()) return Usage("noise");
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  const double epsilon = Relations::Compute(log).epsilon();
  const int64_t threshold = SuggestNoiseThreshold(
      static_cast<int64_t>(log.num_executions()), epsilon);
  std::printf("estimated out-of-order rate (epsilon): %.4f\n", epsilon);
  std::printf("suggested threshold T for m=%zu executions: %lld\n",
              log.num_executions(), static_cast<long long>(threshold));
  return kExitOk;
}

Result<int> CommandReport(const Args& args) {
  if (args.positional.empty()) return Usage("report");
  // Reports are built from recorded counters, so recording must be on even
  // without --metrics-out.
  obs::SetMetricsEnabled(true);
  PROCMINE_ASSIGN_OR_RETURN(RunBudget::Limits limits,
                            BudgetLimitsFromArgs(args));
  PROCMINE_ASSIGN_OR_RETURN(MinerOptions miner, MinerOptionsFromArgs(args));
  PROCMINE_ASSIGN_OR_RETURN(obs::RunReportOptions options,
                            ReportOptionsFromArgs(args));
  RunBudget budget(limits);
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);
  PROCMINE_PHASE("report.build");
  IngestionReport ingestion;
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args, &ingestion));
  const std::optional<Relations> relations = AutoThreshold(args, log, &miner);
  options.relations = relations.has_value() ? &*relations : nullptr;
  miner.budget = &budget;
  options.miner = miner;
  if (ingestion.policy != RecoveryPolicy::kStrict) {
    options.ingestion = &ingestion;
  }
  PROCMINE_ASSIGN_OR_RETURN(obs::RunReport report,
                            obs::BuildRunReport(log, options));
  PROCMINE_RETURN_NOT_OK(WriteReportArtifacts(report, args, "out", "dot"));
  std::cout << report.SummaryText() << "\n" << report.SensitivityTableText();
  return FinishWithDegradation(report.degradation);
}

/// `synth --drift=KIND`: a known process whose behaviour changes at --cut,
/// for measuring drift-detection latency (see synth/drift_scenario.h).
Result<int> SynthDrift(const Args& args) {
  DriftScenarioOptions options;
  PROCMINE_ASSIGN_OR_RETURN(options.kind,
                            args.Parsed("drift", options.kind, ParseDriftKind));
  PROCMINE_ASSIGN_OR_RETURN(options.num_executions,
                            args.Int("executions", options.num_executions));
  PROCMINE_ASSIGN_OR_RETURN(int64_t seed, args.Int("seed", 1));
  options.seed = static_cast<uint64_t>(seed);
  PROCMINE_ASSIGN_OR_RETURN(options.cut,
                            args.Int("cut", options.num_executions / 2));
  PROCMINE_ASSIGN_OR_RETURN(options.swap_rate,
                            args.Double("swap-rate", options.swap_rate));
  PROCMINE_ASSIGN_OR_RETURN(options.shift_from,
                            args.Double("shift-from", options.shift_from));
  PROCMINE_ASSIGN_OR_RETURN(options.shift_to,
                            args.Double("shift-to", options.shift_to));
  PROCMINE_ASSIGN_OR_RETURN(options.ramp_executions,
                            args.Int("ramp", options.ramp_executions));
  PROCMINE_ASSIGN_OR_RETURN(EventLog log, GenerateDriftLog(options));
  PROCMINE_RETURN_NOT_OK(WriteLogAuto(log, args.Get("out")));
  std::fprintf(stderr,
               "wrote %zu executions (drift=%s at cut %lld) to %s\n",
               log.num_executions(),
               std::string(DriftKindName(options.kind)).c_str(),
               static_cast<long long>(options.cut), args.Get("out").c_str());
  return kExitOk;
}

/// synth --stream-out=DIR: the deterministic streamed generator. Walks the
/// same truth DAG with the same RNG as --out, but hands each execution
/// straight to a SegmentedLogWriter — the log is never materialized, so
/// --events can run to 10^9 on a bounded-memory container. Sized by
/// --executions, --events (raw events; stops at whichever comes first), or
/// both.
Status SynthStream(const Args& args, const ProcessGraph& truth,
                   WalkLogOptions log_options) {
  PROCMINE_ASSIGN_OR_RETURN(int64_t max_events, args.Int("events", 0, 1));
  PROCMINE_ASSIGN_OR_RETURN(
      int64_t executions,
      args.Int("executions", std::numeric_limits<int64_t>::max(), 1));
  log_options.num_executions = static_cast<size_t>(executions);
  PROCMINE_ASSIGN_OR_RETURN(RunBudget::Limits limits,
                            BudgetLimitsFromArgs(args));
  RunBudget budget(limits);
  PROCMINE_ASSIGN_OR_RETURN(SegmentStoreOptions store_options,
                            StoreOptionsFromArgs(args, &budget));
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);
  PROCMINE_PHASE("synth.stream");
  PROCMINE_ASSIGN_OR_RETURN(
      SegmentedLogWriter writer,
      SegmentedLogWriter::Create(args.Get("stream-out"), store_options));

  ActivityDictionary dict;
  for (NodeId v = 0; v < truth.num_activities(); ++v) {
    dict.Intern(truth.name(v));
  }
  StreamWalkStats stats;
  PROCMINE_RETURN_NOT_OK(StreamWalkLog(
      truth, log_options, max_events,
      [&](Execution&& exec) { return writer.Append(exec, dict); }, &stats));
  PROCMINE_RETURN_NOT_OK(writer.Finish());
  std::fprintf(stderr,
               "streamed %lld executions (%lld events) over %d activities "
               "(%lld true edges) into %lld segments at %s "
               "(%lld budget-forced seals)\n",
               static_cast<long long>(stats.executions),
               static_cast<long long>(stats.events), truth.num_activities(),
               static_cast<long long>(truth.graph().num_edges()),
               static_cast<long long>(writer.segments_sealed()),
               args.Get("stream-out").c_str(),
               static_cast<long long>(writer.spill_seals()));
  return Status::OK();
}

/// synth: the truth DAG comes from --activities, --density and --seed, and
/// the walk that generates executions from it is seeded --seed + 1, whether
/// the log is written whole (--out) or streamed into a store (--stream-out).
Result<int> CommandSynth(const Args& args) {
  const bool stream = args.Has("stream-out");
  if (!stream && args.Has("drift")) {
    if (!args.Has("executions") || !args.Has("out")) return Usage("synth");
    return SynthDrift(args);
  }
  if (!args.Has("activities") ||
      (stream ? !args.Has("executions") && !args.Has("events")
              : !args.Has("executions") || !args.Has("out"))) {
    return Usage("synth");
  }
  RandomDagOptions dag_options;
  PROCMINE_ASSIGN_OR_RETURN(dag_options.num_activities,
                            args.Int<int32_t>("activities", 0));
  PROCMINE_ASSIGN_OR_RETURN(int64_t seed, args.Int("seed", 1));
  dag_options.seed = static_cast<uint64_t>(seed);
  PROCMINE_ASSIGN_OR_RETURN(
      dag_options.edge_density,
      args.Double("density", PaperEdgeDensity(dag_options.num_activities)));
  ProcessGraph truth = GenerateRandomDag(dag_options);
  WalkLogOptions log_options;
  log_options.seed = dag_options.seed + 1;

  if (stream) {
    PROCMINE_RETURN_NOT_OK(SynthStream(args, truth, log_options));
  } else {
    PROCMINE_ASSIGN_OR_RETURN(int64_t executions,
                              args.Int("executions", 0, 0));
    log_options.num_executions = static_cast<size_t>(executions);
    PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                              GenerateWalkLog(truth, log_options));
    PROCMINE_RETURN_NOT_OK(WriteLogAuto(log, args.Get("out")));
    std::fprintf(stderr,
                 "wrote %zu executions over %d activities (%lld true edges) "
                 "to %s\n",
                 log.num_executions(), truth.num_activities(),
                 static_cast<long long>(truth.graph().num_edges()),
                 args.Get("out").c_str());
  }
  if (args.Has("truth-dot")) {
    PROCMINE_RETURN_NOT_OK(
        WriteDotFile(truth.graph(), truth.names(), args.Get("truth-dot")));
  }
  return kExitOk;
}

Result<int> CommandSimulate(const Args& args) {
  if (!args.Has("definition") || !args.Has("executions") ||
      !args.Has("out")) {
    return Usage("simulate");
  }
  PROCMINE_ASSIGN_OR_RETURN(int64_t executions, args.Int("executions", 0, 0));
  PROCMINE_ASSIGN_OR_RETURN(int64_t seed, args.Int("seed", 1));
  const bool cyclic = args.Has("cyclic");
  EngineOptions options;
  if (cyclic) options.mode = ExecutionMode::kTokenFire;
  if (args.Has("agents")) {
    PROCMINE_ASSIGN_OR_RETURN(options.num_agents, args.Int<int>("agents", 1));
    options.min_duration = 1;
    PROCMINE_ASSIGN_OR_RETURN(options.max_duration,
                              args.Int("max-duration", 10));
  }
  PROCMINE_ASSIGN_OR_RETURN(ProcessDefinition def,
                            ReadFdlFile(args.Get("definition"), !cyclic));
  Engine engine(&def, options);
  PROCMINE_ASSIGN_OR_RETURN(
      EventLog log, engine.GenerateLog(static_cast<size_t>(executions),
                                       static_cast<uint64_t>(seed)));
  PROCMINE_RETURN_NOT_OK(WriteLogAuto(log, args.Get("out")));
  std::fprintf(stderr, "simulated %zu executions to %s\n",
               log.num_executions(), args.Get("out").c_str());
  return kExitOk;
}

Result<int> CommandPatterns(const Args& args) {
  if (args.positional.empty()) return Usage("patterns");
  SequentialPatternOptions options;
  PROCMINE_ASSIGN_OR_RETURN(options.min_support, args.Int("support", 2));
  PROCMINE_ASSIGN_OR_RETURN(options.max_length,
                            args.Int<int>("max-length", 6));
  options.max_patterns = 100000;
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  auto patterns = MineSequentialPatterns(log, options);
  if (args.Has("maximal")) patterns = MaximalPatterns(patterns);
  for (const SequentialPattern& p : patterns) {
    std::cout << p.ToString(log.dictionary()) << "\n";
  }
  std::fprintf(stderr, "%zu patterns\n", patterns.size());
  return kExitOk;
}

/// convert <in> <out>: any input the reader takes (a store is materialized,
/// honoring --recovery salvage) to the format of <out>'s extension, or to a
/// segment store with --to-store.
Result<int> CommandConvert(const Args& args) {
  if (args.positional.size() != 2) return Usage("convert");
  const std::string& out = args.positional[1];
  PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                            ReadLogAuto(args.positional[0], args));
  if (!args.Has("to-store")) {
    PROCMINE_RETURN_NOT_OK(WriteLogAuto(log, out));
    return kExitOk;
  }
  PROCMINE_ASSIGN_OR_RETURN(SegmentStoreOptions store_options,
                            StoreOptionsFromArgs(args, nullptr));
  PROCMINE_ASSIGN_OR_RETURN(SegmentedLogWriter writer,
                            SegmentedLogWriter::Create(out, store_options));
  PROCMINE_RETURN_NOT_OK(writer.AppendLog(log));
  PROCMINE_RETURN_NOT_OK(writer.Finish());
  std::fprintf(stderr, "wrote %lld executions into %lld segments at %s\n",
               static_cast<long long>(writer.executions()),
               static_cast<long long>(writer.segments_sealed()), out.c_str());
  return kExitOk;
}

// ---------------------------------------------------------------------------
// serve / client — the streaming mining server (docs/serving.md).

std::atomic<bool> g_serve_stop{false};

void ServeStopHandler(int) { g_serve_stop.store(true); }

/// Builds the per-session spec from --threshold, --recovery, and the
/// --session-* budget flags (the plain --deadline-ms family is the GLOBAL
/// server budget on `serve`, so sessions get their own namespace).
Result<serve::SessionSpec> SessionSpecFromArgs(const Args& args) {
  serve::SessionSpec spec;
  PROCMINE_ASSIGN_OR_RETURN(spec.noise_threshold,
                            args.Int("threshold", spec.noise_threshold));
  PROCMINE_ASSIGN_OR_RETURN(spec.limits,
                            BudgetLimitsFromArgs(args, "session-"));
  PROCMINE_ASSIGN_OR_RETURN(spec.recovery, RecoveryFlag(args));
  return spec;
}

Result<serve::ServeOptions> ServeOptionsFromArgs(const Args& args) {
  serve::ServeOptions options;
  options.journal_dir = args.Get("journal-dir");
  options.registry_root = args.Get("registry-root");
  options.fsync_journal = !args.Has("no-fsync");
  PROCMINE_ASSIGN_OR_RETURN(options.threads, args.Threads());
  PROCMINE_ASSIGN_OR_RETURN(
      options.queue_batches,
      args.Int<int>("queue-batches", options.queue_batches));
  PROCMINE_ASSIGN_OR_RETURN(
      options.max_frame_bytes,
      args.MiB("max-frame-mb", options.max_frame_bytes, 0));
  PROCMINE_ASSIGN_OR_RETURN(
      options.max_queued_bytes,
      args.MiB("max-queued-mb", options.max_queued_bytes, 0));
  PROCMINE_ASSIGN_OR_RETURN(
      options.idle_timeout_ms,
      args.Int("idle-timeout-ms", options.idle_timeout_ms));
  PROCMINE_ASSIGN_OR_RETURN(options.max_sessions,
                            args.Int("max-sessions", options.max_sessions));
  PROCMINE_ASSIGN_OR_RETURN(options.global_limits, BudgetLimitsFromArgs(args));
  PROCMINE_ASSIGN_OR_RETURN(options.default_spec, SessionSpecFromArgs(args));
  return options;
}

Result<int> CommandServe(const Args& args) {
  if (!args.Has("socket")) return Usage("serve");
  PROCMINE_ASSIGN_OR_RETURN(serve::ServeOptions options,
                            ServeOptionsFromArgs(args));

  // A client vanishing mid-write must cost that connection an EPIPE, not
  // the process a SIGPIPE. SIGTERM/SIGINT flip the stop flag the accept and
  // connection loops poll, turning the signal into a graceful drain.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, ServeStopHandler);
  std::signal(SIGINT, ServeStopHandler);

  serve::ServeCore core(options);
  PROCMINE_ASSIGN_OR_RETURN(int64_t recovered, core.RecoverFromJournals());
  if (recovered > 0 || core.stats().journals_skipped > 0) {
    std::fprintf(stderr,
                 "recovered %lld session(s) from journals "
                 "(%lld torn tail(s) truncated, %lld journal(s) skipped)\n",
                 static_cast<long long>(recovered),
                 static_cast<long long>(core.stats().journals_torn),
                 static_cast<long long>(core.stats().journals_skipped));
  }

  serve::SocketServer server(&core, args.Get("socket"),
                             options.max_frame_bytes, &g_serve_stop);
  PROCMINE_RETURN_NOT_OK(server.Start());
  std::fprintf(stderr, "serving on %s\n", args.Get("socket").c_str());
  PROCMINE_RETURN_NOT_OK(server.Serve());
  Status drain = core.Drain();
  const serve::ServeStats& stats = core.stats();
  std::fprintf(
      stderr,
      "drained: %lld opened, %lld recovered, %lld closed, %lld applied, "
      "%lld degraded, %lld rejected, %lld shed, %lld published\n",
      static_cast<long long>(stats.sessions_opened),
      static_cast<long long>(stats.sessions_recovered),
      static_cast<long long>(stats.sessions_closed),
      static_cast<long long>(stats.batches_applied),
      static_cast<long long>(stats.batches_degraded),
      static_cast<long long>(stats.batches_rejected),
      static_cast<long long>(stats.batches_shed),
      static_cast<long long>(stats.models_published));
  PROCMINE_RETURN_NOT_OK(drain);
  return kExitOk;
}

/// Copies executions [begin, end) into a self-contained batch log with its
/// own dictionary (a kBatch body must decode standalone).
EventLog SliceLog(const EventLog& log, size_t begin, size_t end) {
  EventLog slice;
  for (size_t i = begin; i < end; ++i) {
    const Execution& exec = log.execution(i);
    Execution copy = exec;
    for (size_t k = 0; k < exec.size(); ++k) {
      copy.Relabel(k, slice.dictionary().Intern(
                          log.dictionary().Name(exec[k].activity)));
    }
    slice.AddExecution(std::move(copy));
  }
  return slice;
}

/// Maps a response code to the CLI exit taxonomy.
int ExitForResponseCode(serve::ResponseCode code) {
  switch (code) {
    case serve::ResponseCode::kOk:
      return kExitOk;
    case serve::ResponseCode::kBadFrame:
      return kExitUsage;
    case serve::ResponseCode::kDataError:
    case serve::ResponseCode::kSessionClosed:
      return kExitData;
    case serve::ResponseCode::kDegraded:
      return kExitDegraded;
    default:
      return kExitInternal;
  }
}

/// Severity order for combining per-request exit codes: hard errors beat
/// degraded beats ok (mirrors FinishWithDegradation's precedence).
int WorseExit(int a, int b) {
  auto rank = [](int code) {
    switch (code) {
      case kExitInternal: return 4;
      case kExitData: return 3;
      case kExitUsage: return 2;
      case kExitDegraded: return 1;
      default: return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

void PrintAck(const char* what, const serve::ResponseFrame& response) {
  std::fprintf(stderr, "%s: %s", what,
               std::string(serve::ResponseCodeName(response.code)).c_str());
  if (response.applied_executions > 0 || response.session_executions > 0) {
    std::fprintf(stderr, " applied=%lld total=%lld",
                 static_cast<long long>(response.applied_executions),
                 static_cast<long long>(response.session_executions));
  }
  if (response.degraded) {
    std::fprintf(stderr, " degraded(resource=%s phase=%s)",
                 std::string(BudgetResourceName(response.resource)).c_str(),
                 response.cut_phase.c_str());
  }
  if (!response.detail.empty()) {
    std::fprintf(stderr, " (%s)", response.detail.c_str());
  }
  std::fprintf(stderr, "\n");
}

/// The hostile client: four malformed-stream attacks, each on a fresh
/// connection, then a ping on yet another connection to prove the server
/// survived. Exit 0 = server isolated every attack.
Result<int> RunGarbageClient(const std::string& socket_path) {
  struct Attack {
    const char* name;
    std::string bytes;
  };
  std::vector<Attack> attacks;
  {
    std::string payload = "garbage-not-a-request";
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    PutFixed32(&frame, 0xdeadbeefu);  // wrong checksum
    attacks.push_back({"bad_checksum", std::move(frame)});
  }
  {
    std::string frame;
    PutFixed32(&frame, 0x7fffffffu);  // declares a 2 GiB payload
    attacks.push_back({"oversize_declaration", std::move(frame)});
  }
  {
    std::string frame;
    PutFixed32(&frame, 100);  // declares 100 bytes, delivers 9, hangs up
    frame += "truncated";
    attacks.push_back({"torn_frame", std::move(frame)});
  }
  {
    std::string payload;
    payload.push_back('\xff');  // valid frame, unknown request type
    payload += "junk";
    std::string frame;
    PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
    frame += payload;
    PutFixed32(&frame, Crc32c(payload));
    attacks.push_back({"bad_request_type", std::move(frame)});
  }
  for (const Attack& attack : attacks) {
    Result<serve::ServeClient> client = serve::ServeClient::Connect(socket_path);
    if (!client.ok()) {
      std::fprintf(stderr, "garbage[%s]: connect failed — server down? %s\n",
                   attack.name, client.status().ToString().c_str());
      return kExitData;
    }
    // Errors here are fine: the server may hang up mid-send. Half-close our
    // write side so a deliberately torn frame reads as EOF server-side.
    (void)client->SendRaw(attack.bytes);
    ::shutdown(client->fd(), SHUT_WR);
    Result<serve::ResponseFrame> response = client->ReadResponse();
    if (response.ok()) {
      std::fprintf(
          stderr, "garbage[%s]: server answered %s\n", attack.name,
          std::string(serve::ResponseCodeName(response->code)).c_str());
    } else {
      std::fprintf(stderr, "garbage[%s]: server hung up (%s)\n", attack.name,
                   response.status().ToString().c_str());
    }
  }
  PROCMINE_ASSIGN_OR_RETURN(serve::ServeClient probe,
                            serve::ServeClient::Connect(socket_path));
  Result<serve::ResponseFrame> pong = probe.Call(serve::FrameType::kPing, "");
  if (!pong.ok() || pong->code != serve::ResponseCode::kOk) {
    std::fprintf(stderr, "garbage client: server did NOT survive\n");
    return kExitData;
  }
  std::fprintf(stderr, "garbage client: server survived %zu attacks\n",
               attacks.size());
  return kExitOk;
}

Result<int> CommandClient(const Args& args) {
  if (!args.Has("socket")) return Usage("client");
  std::signal(SIGPIPE, SIG_IGN);
  const std::string socket_path = args.Get("socket");
  if (args.Has("garbage")) return RunGarbageClient(socket_path);
  const bool ping_only = args.Has("ping") && !args.Has("session");
  if (!ping_only && !args.Has("session")) {
    std::cerr << "client requires --session=NAME (or --ping / --garbage)\n";
    return kExitUsage;
  }
  // 0 sends the whole log as one batch.
  PROCMINE_ASSIGN_OR_RETURN(int64_t batch_executions,
                            args.Int("batch-executions", 0, 1));
  PROCMINE_ASSIGN_OR_RETURN(serve::SessionSpec spec, SessionSpecFromArgs(args));

  PROCMINE_ASSIGN_OR_RETURN(serve::ServeClient client,
                            serve::ServeClient::Connect(socket_path));
  if (ping_only) {
    PROCMINE_ASSIGN_OR_RETURN(serve::ResponseFrame pong,
                              client.Call(serve::FrameType::kPing, ""));
    PrintAck("ping", pong);
    return ExitForResponseCode(pong.code);
  }
  const std::string session = args.Get("session");
  int exit_code = kExitOk;
  // Sends one request, prints its ack and folds its code into exit_code.
  auto call = [&](const char* what, serve::FrameType type,
                  const std::string& body) -> Result<serve::ResponseFrame> {
    PROCMINE_ASSIGN_OR_RETURN(serve::ResponseFrame response,
                              client.Call(type, session, body));
    PrintAck(what, response);
    exit_code = WorseExit(exit_code, ExitForResponseCode(response.code));
    return response;
  };

  PROCMINE_RETURN_NOT_OK(call("open", serve::FrameType::kOpen,
                              serve::EncodeSessionSpec(spec))
                             .status());
  if (!args.positional.empty()) {
    PROCMINE_ASSIGN_OR_RETURN(EventLog log,
                              ReadLogAuto(args.positional[0], args));
    const size_t step = batch_executions > 0
                            ? static_cast<size_t>(batch_executions)
                            : std::max<size_t>(log.num_executions(), 1);
    for (size_t begin = 0; begin < log.num_executions(); begin += step) {
      size_t end = std::min(log.num_executions(), begin + step);
      PROCMINE_RETURN_NOT_OK(
          call("batch", serve::FrameType::kBatch,
               EncodeBinaryLog(SliceLog(log, begin, end)))
              .status());
    }
  }
  if (args.Has("query") || args.Has("query-out")) {
    PROCMINE_ASSIGN_OR_RETURN(serve::ResponseFrame model,
                              call("query", serve::FrameType::kQuery, ""));
    if (model.code == serve::ResponseCode::kOk ||
        model.code == serve::ResponseCode::kDegraded) {
      if (args.Has("query-out")) {
        PROCMINE_RETURN_NOT_OK(
            WriteFileAtomic(args.Get("query-out"), model.body));
      } else {
        std::fwrite(model.body.data(), 1, model.body.size(), stdout);
      }
    }
  }
  if (args.Has("close")) {
    PROCMINE_RETURN_NOT_OK(
        call("close", serve::FrameType::kClose, "").status());
  }
  return exit_code;
}

// ---------------------------------------------------------------------------
// The command table: the one source of each command's usage.

struct Command {
  const char* name;
  /// Usage lines, the first starting with the command name.
  const char* usage;
  Result<int> (*run)(const Args&);
};

const Command kCommands[] = {
    {"mine",
     "mine <log|store-dir> [--algorithm=auto|special|general|cyclic]\n"
     "     [--threshold=N|auto] [--threads=N|auto] [--chunk-size=N]\n"
     "     [--dot=FILE] [--ascii] [--conditions [--fdl=FILE]]\n"
     "     [--report-out=FILE] [--report-dot=FILE]\n"
     "     [--spill-dir=DIR [--segment-events=N]] [--resident-mb=N]\n"
     "     (one command over three sources, one byte-identical model: a\n"
     "      log read whole into memory; a segment-store directory, mined\n"
     "      out of core with bounded resident memory; or a text log that\n"
     "      --spill-dir streams into a store first. --conditions, --fdl,\n"
     "      --report-out, --report-dot and --threshold=auto need the whole\n"
     "      log in memory)\n"
     "     (--report-out: full run report JSON — edge provenance,\n"
     "      conformance verdicts, noise-threshold sensitivity;\n"
     "      --report-dot: DOT with dropped candidates dashed gray)\n"
     "     (--threads: worker threads for ingestion and the work-stealing\n"
     "      mining passes; auto = all hardware threads, 1 = sequential;\n"
     "      --chunk-size: executions per stolen chunk, 0 = auto;\n"
     "      the mined model is identical for every combination)\n",
     CommandMine},
    {"check", "check <log> --model=EDGEFILE\n", CommandCheck},
    {"diff", "diff <log> --model=EDGEFILE\n", CommandDiff},
    {"stats",
     "stats <log|store-dir>   (stores: segment/byte/cache footprint)\n",
     CommandStats},
    {"perf", "perf <log> [--dot=FILE]\n", CommandPerf},
    {"explain",
     "explain <log> [--edge=From,To] [--algorithm=...]\n"
     "        [--threshold=N|auto] [--threads=N|auto] [--chunk-size=N]\n"
     "        (mines as `mine` does, with the same flags and defaults,\n"
     "         and narrates the run step by step or explains one edge\n"
     "         from the recorded edge provenance)\n",
     CommandExplain},
    {"variants", "variants <log> [--top=K]\n", CommandVariants},
    {"noise", "noise <log>\n", CommandNoise},
    {"report",
     "report <log> [--algorithm=...] [--threshold=N|auto]\n"
     "       [--threads=N|auto] [--chunk-size=N] [--out=FILE] [--dot=FILE]\n"
     "       [--sweep=T1,T2,...] [--unstable-cutoff=P]\n",
     CommandReport},
    {"monitor",
     "monitor <log> [--window-executions=W] [--slide=S]\n"
     "        [--threshold=N|auto] [--epsilon=E] [--bound-cutoff=P]\n"
     "        [--min-final-window=N] [--registry-dir=DIR]\n"
     "        [--alerts-out=FILE] [--report-out=FILE] [--threads=N|auto]\n"
     "        [--stream]\n"
     "        (windowed drift monitoring: mines every window, keeps a\n"
     "         versioned model registry, emits a JSON-lines alert feed\n"
     "         and a schema_version-3 drift report; exit 1 = drift)\n",
     CommandMonitor},
    {"synth",
     "synth --activities=N --executions=M [--density=D] [--seed=S]\n"
     "      --out=FILE [--truth-dot=FILE]\n"
     "synth --activities=N --stream-out=DIR (--executions=M | --events=E)\n"
     "      [--density=D] [--seed=S] [--segment-events=N]\n"
     "      [--max-memory-mb=N] [--truth-dot=FILE]\n"
     "      (streamed generator: writes a segment store directly, never\n"
     "       materializing the log; RNG-identical to --out)\n"
     "synth --drift=none|edge_added|edge_removed|condition_flipped|\n"
     "      frequency_shift --executions=M [--cut=N] [--swap-rate=E]\n"
     "      [--shift-from=P] [--shift-to=P] [--ramp=N] [--seed=S]\n"
     "      --out=FILE   (drift scenario with a known change point)\n",
     CommandSynth},
    {"simulate",
     "simulate --definition=FDL --executions=M [--seed=S] [--cyclic]\n"
     "         [--agents=K --max-duration=D] --out=FILE\n",
     CommandSimulate},
    {"patterns", "patterns <log> [--support=N] [--max-length=K] [--maximal]\n",
     CommandPatterns},
    {"convert",
     "convert <in> <out> [--to-store [--segment-events=N]]\n"
     "        (<in> may be a store-dir; --to-store writes <out> as one)\n",
     CommandConvert},
    {"top",
     "top <status-file>   (pretty-print the heartbeat a --status-file\n"
     "    run keeps rewriting; exit 0 fresh, 1 stale)\n",
     CommandTop},
    {"serve",
     "serve --socket=PATH [--journal-dir=DIR] [--registry-root=DIR]\n"
     "      [--threads=N] [--queue-batches=N] [--max-frame-mb=N]\n"
     "      [--max-queued-mb=N] [--idle-timeout-ms=N] [--max-sessions=N]\n"
     "      [--no-fsync] [--max-memory-mb=N global shed high-water]\n"
     "      [session defaults: --threshold=N --recovery=POLICY\n"
     "       --session-deadline-ms=N --session-max-memory-mb=N\n"
     "       --session-max-executions=N]\n"
     "      (streaming mining daemon; SIGTERM drains gracefully;\n"
     "       docs/serving.md)\n",
     CommandServe},
    {"client",
     "client --socket=PATH --session=NAME [log] [--batch-executions=N]\n"
     "       [--query | --query-out=FILE] [--close] [--ping] [--garbage]\n"
     "       (serve-protocol client; --garbage runs hostile-frame attacks\n"
     "        and exits 0 iff the server survives them all)\n",
     CommandClient},
};

constexpr char kGlobalFlags[] =
    "global flags (any command): --trace-out=FILE (Chrome trace JSON +\n"
    "per-phase summary), --metrics-out=FILE (counter snapshot JSON),\n"
    "--log-level=debug|info|warning|error, --log-json (JSON-lines logs)\n"
    "telemetry flags (any command; docs/observability.md):\n"
    "--telemetry-out=FILE (JSONL time-series), --metrics-openmetrics=FILE\n"
    "(OpenMetrics 1.0 exposition, atomically rewritten each sample),\n"
    "--status-file=FILE (heartbeat/status JSON for `procmine top`),\n"
    "--telemetry-interval-ms=N (default 250)\n"
    "robustness flags (any log-reading command; docs/robustness.md):\n"
    "--recovery=strict|skip|quarantine, --quarantine-out=FILE,\n"
    "--deadline-ms=N, --max-memory-mb=N, --max-executions=N\n"
    "exit codes: 0 ok, 1 analysis mismatch, 2 usage, 3 data error\n"
    "(including a bad flag value), 4 budget-degraded, 5 internal\n"
    "log formats by extension: .bin (binary), .xes (XES XML), .csv\n"
    "(export only), anything else = text event format\n";

const Command* FindCommand(std::string_view name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// Prints `command`'s usage lines: each form (a line that starts with the
/// command name) after `lead`, continuation lines aligned under it.
void PrintCommandUsage(const Command& command, std::string_view lead) {
  const std::string pad(lead.size(), ' ');
  for (const std::string& line : Split(command.usage, '\n')) {
    if (line.empty()) continue;
    std::cerr << (StartsWith(line, command.name) ? lead : pad) << line
              << "\n";
  }
}

int Usage(std::string_view name) {
  PrintCommandUsage(*FindCommand(name), "usage: procmine ");
  return kExitUsage;
}

void PrintUsage() {
  std::cerr << "procmine: mining process models from workflow logs\n"
               "commands:\n";
  for (const Command& command : kCommands) PrintCommandUsage(command, "  ");
  std::cerr << kGlobalFlags;
}

/// Applies --log-level / --log-json / --trace-out / --metrics-out before the
/// command runs, and starts the background telemetry sampler when any of
/// --telemetry-out / --metrics-openmetrics / --status-file is present.
/// Returns the exit code of a setup failure, or kExitOk.
int SetUpObservability(const std::string& command, const Args& args) {
  if (args.Has("log-level")) {
    LogLevel level;
    if (!ParseLogLevel(args.Get("log-level"), &level)) {
      std::cerr << "bad --log-level: " << args.Get("log-level")
                << " (want debug|info|warning|error)\n";
      return kExitUsage;
    }
    SetLogLevel(level);
  }
  if (args.Has("log-json")) SetLogFormat(LogFormat::kJsonLines);
  if (args.Has("trace-out")) {
    obs::SetTracingEnabled(true);
    // A trace embeds counter totals, so tracing implies metrics.
    obs::SetMetricsEnabled(true);
  }
  if (args.Has("metrics-out")) obs::SetMetricsEnabled(true);
  // Run reports embed a metrics snapshot, so the flags imply recording.
  if (args.Has("report-out") || args.Has("report-dot")) {
    obs::SetMetricsEnabled(true);
  }
  if (args.Has("telemetry-out") || args.Has("metrics-openmetrics") ||
      args.Has("status-file")) {
    obs::TelemetryOptions topt;
    topt.jsonl_path = args.Get("telemetry-out");
    topt.openmetrics_path = args.Get("metrics-openmetrics");
    topt.status_path = args.Get("status-file");
    topt.command = command;
    if (!args.positional.empty()) topt.source = args.positional[0];
    Result<int64_t> interval =
        args.Int("telemetry-interval-ms", topt.interval_ms);
    if (!interval.ok()) return Fail(interval.status());
    topt.interval_ms = *interval;
    // The sampler reads the registry, so telemetry implies metrics.
    obs::SetMetricsEnabled(true);
    Status st = obs::StartGlobalTelemetry(topt);
    if (!st.ok()) return Fail(st);
  }
  return kExitOk;
}

/// Writes the telemetry / trace / metrics files after the command finished.
/// Failures are reported but do not change the command's exit code semantics
/// beyond 1. Runs on every exit path out of Dispatch — including the
/// budget-degraded one — so a run that dies on exit 4 still leaves its
/// artifacts behind.
int FlushObservability(const Args& args, int rc) {
  // Stop the sampler first: its final sample captures the end-of-run counter
  // totals, and the files must be sealed before we report them written.
  if (obs::GlobalTelemetry() != nullptr) {
    Status st = obs::StopGlobalTelemetry();
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      if (rc == 0) rc = ExitCodeForStatus(st);
    } else {
      for (const char* flag :
           {"telemetry-out", "metrics-openmetrics", "status-file"}) {
        if (args.Has(flag)) {
          std::fprintf(stderr, "wrote %s to %s\n", flag,
                       args.Get(flag).c_str());
        }
      }
    }
  }
  if (args.Has("trace-out")) {
    Status st = WriteFileAtomic(args.Get("trace-out"),
                                obs::TraceRecorder::Get().ChromeTraceJson());
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return rc == 0 ? ExitCodeForStatus(st) : rc;
    }
    std::fprintf(stderr, "wrote trace to %s\n%s",
                 args.Get("trace-out").c_str(),
                 obs::TraceRecorder::Get().SummaryText().c_str());
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
    for (const auto& h : snapshot.histograms) {
      std::fprintf(stderr, "%s: count=%lld p50=%.6g p95=%.6g p99=%.6g\n",
                   h.name.c_str(), static_cast<long long>(h.total_count),
                   h.Percentile(0.50), h.Percentile(0.95), h.Percentile(0.99));
    }
  }
  if (args.Has("metrics-out")) {
    Status st = WriteFileAtomic(args.Get("metrics-out"),
                                obs::MetricsRegistry::Get().Snapshot().ToJson());
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return rc == 0 ? ExitCodeForStatus(st) : rc;
    }
    std::fprintf(stderr, "wrote metrics to %s\n",
                 args.Get("metrics-out").c_str());
  }
  return rc;
}

int Dispatch(const std::string& name, const Args& args) {
  const Command* command = FindCommand(name);
  if (command == nullptr) {
    PrintUsage();
    return kExitUsage;
  }
  Result<int> rc = command->run(args);
  return rc.ok() ? *rc : Fail(rc.status());
}

}  // namespace

int main(int argc, char** argv) {
  // Arm PROCMINE_FAILPOINTS sites first so fault-injection tests exercise
  // the whole binary, ingestion included.
  failpoint::ActivateFromEnv();
  if (argc < 2) {
    PrintUsage();
    return kExitUsage;
  }
  std::string command = argv[1];
  Args args = ParseArgs(argc, argv);
  if (int rc = SetUpObservability(command, args); rc != kExitOk) return rc;
  int rc = Dispatch(command, args);
  return FlushObservability(args, rc);
}
