// procmine — command-line front end.
//
//   procmine mine <log> [--algorithm=auto|special|general|cyclic]
//                       [--threshold=N|auto] [--threads=N|auto]
//                       [--chunk-size=N] [--dot=FILE] [--conditions]
//   procmine check <log> --model=EDGEFILE      conformance of a model
//   procmine diff <log> --model=EDGEFILE       designed-vs-mined diff
//   procmine stats <log>                       log statistics + validation
//   procmine noise <log>                       epsilon estimate + T*
//   procmine report <log> [--out=FILE] [--dot=FILE]
//                  mining run report: edge provenance, conformance audit,
//                  noise-threshold sensitivity
//   procmine monitor <log> [--window-executions=W] [--slide=S]
//                  [--registry-dir=DIR] [--alerts-out=FILE]
//                  windowed drift monitoring: versioned model registry +
//                  JSON-lines alert feed; exit 1 when drift was detected
//   procmine synth --activities=N --executions=M [--density=D] [--seed=S]
//                  --out=FILE                  synthetic workload
//                  (--drift=KIND generates a change-point scenario instead)
//   procmine convert <in> <out>                format conversion by extension
//   procmine serve --socket=PATH [--journal-dir=DIR] [--registry-root=DIR]
//                  long-running streaming mining daemon (docs/serving.md):
//                  sessions over a unix socket, crash recovery by journal
//                  replay, graceful drain on SIGTERM
//   procmine client --socket=PATH --session=NAME [log] [--query] [--close]
//                  scripted client for the serve protocol (--garbage sends
//                  hostile frames to prove fault isolation)
//
// Global observability flags (valid on every command):
//   --trace-out=FILE    record phase spans, write Chrome trace-event JSON
//                       (open in chrome://tracing or ui.perfetto.dev) and
//                       print a per-phase summary to stderr
//   --metrics-out=FILE  record pipeline counters, write a JSON snapshot
//   --log-level=LEVEL   debug|info|warning|error (default info)
//   --log-json          emit log lines as JSON objects (machine-parseable)
//
// Continuous telemetry (any command; see docs/observability.md). Any of
// these starts a background sampler that snapshots counters + process
// stats on an interval, so a long run is observable while it runs:
//   --telemetry-out=FILE       JSONL time-series, one sample per line
//   --metrics-openmetrics=FILE OpenMetrics 1.0 exposition, atomically
//                              rewritten each tick (Prometheus textfile)
//   --status-file=FILE         heartbeat/status JSON, atomically rewritten
//                              each tick (poll with `procmine top`)
//   --telemetry-interval-ms=N  sampling interval (default 250)
//   procmine top <status-file> pretty-prints a status file once; exit 1
//                              when the heartbeat looks stale
//
// Robustness flags (any log-reading command; see docs/robustness.md):
//   --recovery=POLICY      strict (default) | skip | quarantine — what to do
//                          with malformed lines / executions
//   --quarantine-out=FILE  write rejected inputs to a sidecar (implies
//                          --recovery=quarantine)
//   --deadline-ms=N        wall-clock budget; exhausted -> partial model
//   --max-memory-mb=N      rss budget, checked at phase boundaries
//   --max-executions=N     mine only the first N executions
//
// Exit codes: 0 success; 1 analysis mismatch (check/diff found a
// discrepancy); 2 usage error; 3 data error (unreadable, malformed, or
// unwritable input/output); 4 run completed but was budget-degraded;
// 5 internal error.
//
// Log files are read by extension: .bin (binary format), .xes (XES XML),
// anything else as the text event format. Text logs are memory-mapped and
// parsed in parallel; --threads controls both ingestion sharding and the
// miners, and the result is byte-identical for every value. --chunk-size
// sets the executions-per-chunk granularity of the work-stealing mining
// passes (0/absent = 4 chunks per worker) — a tuning knob only, the model
// is identical for every value. Model edge files are plain text, one
// "From To" pair per line, '#' comments allowed.

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

/// Parsed command line: positional arguments and --key=value flags.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
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

/// The --threads flag as a pool-size knob: auto (default) = hardware
/// concurrency (0), otherwise the literal value. Errors fall back to auto
/// so the miner option parsing can report them properly.
int ThreadsFlag(const Args& args) {
  std::string threads = args.Get("threads", "auto");
  if (threads == "auto") return 0;
  auto parsed = ParseInt64(threads);
  return parsed.ok() ? static_cast<int>(*parsed) : 0;
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

/// Resolves --recovery / --quarantine-out into a policy. --quarantine-out
/// implies quarantine; combining it with an explicit non-quarantine
/// --recovery is a contradiction and rejected.
Result<RecoveryPolicy> RecoveryFlag(const Args& args) {
  RecoveryPolicy policy = RecoveryPolicy::kStrict;
  if (args.Has("recovery")) {
    PROCMINE_ASSIGN_OR_RETURN(policy,
                              ParseRecoveryPolicy(args.Get("recovery")));
  }
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

/// Parses --deadline-ms / --max-memory-mb / --max-executions.
Result<RunBudget::Limits> BudgetLimitsFromArgs(const Args& args) {
  RunBudget::Limits limits;
  if (args.Has("deadline-ms")) {
    PROCMINE_ASSIGN_OR_RETURN(limits.deadline_ms,
                              ParseInt64(args.Get("deadline-ms")));
  }
  if (args.Has("max-memory-mb")) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t mb,
                              ParseInt64(args.Get("max-memory-mb")));
    limits.max_memory_bytes = mb * (int64_t{1} << 20);
  }
  if (args.Has("max-executions")) {
    PROCMINE_ASSIGN_OR_RETURN(limits.max_executions,
                              ParseInt64(args.Get("max-executions")));
  }
  return limits;
}

/// Reads a log honoring --recovery / --quarantine-out. When the caller
/// passes a report sink it receives the full IngestionReport; either way
/// the quarantine sidecar is written and any loss is summarized on stderr.
Result<EventLog> ReadLogAuto(const std::string& path, const Args& args,
                             IngestionReport* report_out = nullptr) {
  PROCMINE_ASSIGN_OR_RETURN(RecoveryPolicy policy, RecoveryFlag(args));
  IngestionReport local;
  IngestionReport* report = report_out != nullptr ? report_out : &local;
  report->policy = policy;
  Result<EventLog> log = Status::Internal("unreachable");
  if (EndsWith(path, ".bin")) {
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
    options.num_threads = ThreadsFlag(args);
    options.recovery = policy;
    options.report = report;
    log = LogReader::ReadFile(path, options);
  }
  if (!log.ok()) return log;
  if (args.Has("quarantine-out")) {
    PROCMINE_RETURN_NOT_OK(
        WriteQuarantineFile(args.Get("quarantine-out"), *report));
    std::fprintf(stderr, "wrote quarantine to %s\n",
                 args.Get("quarantine-out").c_str());
  }
  if (report->AnyLoss()) {
    std::fprintf(stderr, "%s", report->SummaryText().c_str());
  }
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

/// `log` may be null (the out-of-core path, which never materializes one);
/// --threshold=auto then has nothing to estimate from and is rejected.
Result<MinerOptions> MinerOptionsFromArgs(const Args& args,
                                          const EventLog* log) {
  MinerOptions options;
  std::string algorithm = args.Get("algorithm", "auto");
  if (algorithm == "auto") {
    options.algorithm = MinerAlgorithm::kAuto;
  } else if (algorithm == "special") {
    options.algorithm = MinerAlgorithm::kSpecialDag;
  } else if (algorithm == "general") {
    options.algorithm = MinerAlgorithm::kGeneralDag;
  } else if (algorithm == "cyclic") {
    options.algorithm = MinerAlgorithm::kCyclic;
  } else {
    return Status::InvalidArgument("unknown --algorithm: " + algorithm);
  }
  std::string threshold = args.Get("threshold", "1");
  if (threshold == "auto") {
    if (log == nullptr) {
      return Status::InvalidArgument(
          "--threshold=auto needs the whole log in memory; pass an explicit "
          "threshold when mining a segment store");
    }
    options.noise_threshold = SuggestNoiseThreshold(*log);
    std::fprintf(stderr, "estimated noise rate %.4f -> threshold %lld\n",
                 EstimateNoiseRate(*log),
                 static_cast<long long>(options.noise_threshold));
  } else {
    PROCMINE_ASSIGN_OR_RETURN(options.noise_threshold,
                              ParseInt64(threshold));
  }
  // Default: all hardware threads. The model is byte-identical for any
  // thread count; --threads=1 forces the sequential reference path.
  std::string threads = args.Get("threads", "auto");
  if (threads == "auto") {
    options.num_threads = 0;  // 0 = hardware concurrency
  } else {
    PROCMINE_ASSIGN_OR_RETURN(int64_t parsed, ParseInt64(threads));
    options.num_threads = static_cast<int>(parsed);
  }
  // Work-stealing granularity knob; any value yields the same model.
  if (args.Has("chunk-size")) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t chunk,
                              ParseInt64(args.Get("chunk-size")));
    if (chunk < 0) {
      return Status::InvalidArgument("--chunk-size must be >= 0");
    }
    options.chunk_size = static_cast<size_t>(chunk);
  }
  return options;
}

/// Parses --sweep=T1,T2,... into RunReportOptions::sweep.
Result<std::vector<int64_t>> ParseSweep(const std::string& spec) {
  std::vector<int64_t> sweep;
  for (const std::string& field : Split(spec, ',')) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t t, ParseInt64(field));
    sweep.push_back(t);
  }
  return sweep;
}

/// The report flags (--sweep, --unstable-cutoff) over `miner`, the options
/// MinerOptionsFromArgs parsed for the mine.
Result<obs::RunReportOptions> ReportOptionsFromArgs(
    const Args& args, const MinerOptions& miner) {
  obs::RunReportOptions options;
  options.miner = miner;
  if (args.Has("sweep")) {
    PROCMINE_ASSIGN_OR_RETURN(options.sweep, ParseSweep(args.Get("sweep")));
  }
  if (args.Has("unstable-cutoff")) {
    PROCMINE_ASSIGN_OR_RETURN(options.unstable_cutoff,
                              ParseDouble(args.Get("unstable-cutoff")));
  }
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

/// Store knobs shared by synth --stream-out, mine <store>, and --spill-dir:
/// --segment-events (seal size), --resident-mb (reader cache bound; defaults
/// to a quarter of --max-memory-mb when a budget is set), plus the recovery
/// policy and the writer's spill budget.
Result<SegmentStoreOptions> StoreOptionsFromArgs(const Args& args,
                                                 RecoveryPolicy policy,
                                                 RunBudget* budget) {
  SegmentStoreOptions options;
  options.recovery = policy;
  options.budget = budget;
  if (args.Has("segment-events")) {
    PROCMINE_ASSIGN_OR_RETURN(options.target_segment_events,
                              ParseInt64(args.Get("segment-events")));
    if (options.target_segment_events <= 0) {
      return Status::InvalidArgument("--segment-events must be > 0");
    }
  }
  if (args.Has("resident-mb")) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t mb, ParseInt64(args.Get("resident-mb")));
    if (mb <= 0) return Status::InvalidArgument("--resident-mb must be > 0");
    options.max_resident_bytes = mb * (int64_t{1} << 20);
  } else if (budget != nullptr && budget->limits().max_memory_bytes > 0) {
    // Leave most of the budget to the mining accumulators and one decoded
    // window; the cache always keeps at least the current segment resident.
    options.max_resident_bytes =
        std::max<int64_t>(budget->limits().max_memory_bytes / 4, 1 << 20);
  }
  return options;
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

/// The shared output tail of every mine path: model summary, stdout DOT or
/// ASCII, --dot sidecar, degradation exit code.
int EmitModel(const ProcessGraph& model, const Args& args,
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
    Status st = WriteDotFile(model.graph(), model.names(), args.Get("dot"));
    if (!st.ok()) return Fail(st);
  }
  return FinishWithDegradation(degradation);
}

/// Mines a segment-store directory out of core: bounded-resident windowed
/// passes, byte-identical model (see mine/ooc_miner.h).
int CommandMineStore(const Args& args) {
  const std::string& dir = args.positional[0];
  for (const char* flag : {"report-out", "report-dot", "conditions", "fdl"}) {
    if (args.Has(flag)) {
      std::cerr << "--" << flag
                << " needs the whole log in memory; materialize first "
                   "(procmine convert <store> <log>) or mine the text log\n";
      return kExitUsage;
    }
  }
  auto limits = BudgetLimitsFromArgs(args);
  if (!limits.ok()) return Fail(limits.status());
  RunBudget budget(*limits);
  DegradationInfo degradation;
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);

  auto policy = RecoveryFlag(args);
  if (!policy.ok()) return Fail(policy.status());
  auto store_options = StoreOptionsFromArgs(args, *policy, &budget);
  if (!store_options.ok()) return Fail(store_options.status());
  auto store = SegmentStore::Open(dir, *store_options);
  if (!store.ok()) return Fail(store.status());

  auto options = MinerOptionsFromArgs(args, nullptr);
  if (!options.ok()) return Fail(options.status());
  options->budget = &budget;
  options->degradation = &degradation;

  OocMineStats stats;
  auto model = OutOfCoreMiner(*options).Mine(&*store, &stats);
  if (!model.ok()) return Fail(model.status());
  if (args.Has("quarantine-out")) {
    Status st = WriteQuarantineFile(args.Get("quarantine-out"),
                                    store->report());
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote quarantine to %s\n",
                 args.Get("quarantine-out").c_str());
  }
  if (store->report().AnyLoss()) {
    std::fprintf(stderr, "%s", store->report().SummaryText().c_str());
  }
  std::fprintf(stderr, "mined out of core: %lld window loads over %lld "
               "executions (%lld events)\n",
               static_cast<long long>(stats.windows),
               static_cast<long long>(stats.executions),
               static_cast<long long>(stats.events));
  PrintFootprint(store->Footprint(), stderr);
  return EmitModel(*model, args, degradation);
}

/// mine <text-log> --spill-dir=DIR: stream the text log into a segment
/// store (the writer's RSS probe seals segments at the memory high-water
/// mark, so ingestion never materializes the log), then mine it out of
/// core. The store is left behind for reuse. A spill that fails removes the
/// store directory, with any segments it sealed, when this run created it;
/// a directory that was already there is left alone.
int CommandMineSpill(const Args& args) {
  const std::string& path = args.positional[0];
  const std::string dir = args.Get("spill-dir");
  if (IsSegmentStoreDir(path)) {
    std::cerr << "--spill-dir applies to text logs; '" << path
              << "' is already a segment store\n";
    return kExitUsage;
  }
  std::error_code error;
  const bool created = !std::filesystem::exists(dir, error) && !error;
  auto fail = [&](const Status& status) {
    if (created) std::filesystem::remove_all(dir, error);
    return Fail(status);
  };
  if (!EndsWith(path, ".bin") && !EndsWith(path, ".xes")) {
    auto limits = BudgetLimitsFromArgs(args);
    if (!limits.ok()) return Fail(limits.status());
    RunBudget budget(*limits);
    budget.Start();
    obs::TelemetryBudgetScope telemetry_budget(&budget);
    PROCMINE_PHASE("ingest.spill");
    auto policy = RecoveryFlag(args);
    if (!policy.ok()) return Fail(policy.status());
    auto store_options = StoreOptionsFromArgs(args, *policy, &budget);
    if (!store_options.ok()) return Fail(store_options.status());

    auto writer = SegmentedLogWriter::Create(dir, *store_options);
    if (!writer.ok()) return fail(writer.status());
    IngestionReport ingestion;
    StreamOptions stream_options;
    stream_options.recovery = *policy;
    stream_options.report = &ingestion;
    auto streamed = StreamLogFile(
        path,
        [&](const Execution& exec, const ActivityDictionary& dict) {
          return writer->Append(exec, dict);
        },
        stream_options);
    if (!streamed.ok()) return fail(streamed.status());
    Status st = writer->Finish();
    if (!st.ok()) return fail(st);
    if (ingestion.AnyLoss()) {
      std::fprintf(stderr, "%s", ingestion.SummaryText().c_str());
    }
    std::fprintf(stderr,
                 "spilled %lld executions (%lld events) into %lld segments "
                 "at %s (%lld budget-forced seals)\n",
                 static_cast<long long>(writer->executions()),
                 static_cast<long long>(writer->events()),
                 static_cast<long long>(writer->segments_sealed()),
                 dir.c_str(), static_cast<long long>(writer->spill_seals()));
  } else {
    // Binary/XES decoding is already one bounded pass; materialize and
    // convert through the writer.
    auto log = ReadLogAuto(path, args);
    if (!log.ok()) return Fail(log.status());
    auto policy = RecoveryFlag(args);
    if (!policy.ok()) return Fail(policy.status());
    auto store_options = StoreOptionsFromArgs(args, *policy, nullptr);
    if (!store_options.ok()) return Fail(store_options.status());
    auto writer = SegmentedLogWriter::Create(dir, *store_options);
    if (!writer.ok()) return fail(writer.status());
    Status st = writer->AppendLog(*log);
    if (st.ok()) st = writer->Finish();
    if (!st.ok()) return fail(st);
  }
  Args store_args = args;
  store_args.positional[0] = dir;
  store_args.flags.erase("spill-dir");
  return CommandMineStore(store_args);
}

int CommandMine(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine mine <log> [--algorithm=...] "
                 "[--threshold=N|auto] [--threads=N|auto] [--chunk-size=N] "
                 "[--dot=FILE] "
                 "[--report-out=FILE] [--report-dot=FILE] [--conditions] "
                 "[--recovery=strict|skip|quarantine] [--quarantine-out=FILE] "
                 "[--deadline-ms=N] [--max-memory-mb=N] [--max-executions=N]\n"
                 "       procmine mine <store-dir> [--resident-mb=N] ...\n"
                 "       procmine mine <log> --spill-dir=DIR "
                 "[--segment-events=N] ...\n";
    return kExitUsage;
  }
  // A segment-store directory mines out of core; --spill-dir converts a
  // text log into one first. Both share the model-emitting tail.
  if (IsSegmentStoreDir(args.positional[0])) return CommandMineStore(args);
  if (args.Has("spill-dir")) return CommandMineSpill(args);
  auto limits = BudgetLimitsFromArgs(args);
  if (!limits.ok()) return Fail(limits.status());
  RunBudget budget(*limits);
  DegradationInfo degradation;
  budget.Start();  // the deadline covers ingestion too
  obs::TelemetryBudgetScope telemetry_budget(&budget);

  IngestionReport ingestion;
  obs::SetCurrentPhase("ingest");
  auto log = ReadLogAuto(args.positional[0], args, &ingestion);
  if (!log.ok()) return Fail(log.status());
  obs::SetCurrentPhase("mine");
  auto options = MinerOptionsFromArgs(args, &*log);
  if (!options.ok()) return Fail(options.status());
  options->budget = &budget;
  options->degradation = &degradation;
  ProcessMiner miner(*options);

  // --report-out / --report-dot: mine once with provenance recording and
  // reuse the report's model below instead of mining again.
  std::optional<obs::RunReport> report;
  if (args.Has("report-out") || args.Has("report-dot")) {
    auto report_options = ReportOptionsFromArgs(args, *options);
    if (!report_options.ok()) return Fail(report_options.status());
    if (ingestion.policy != RecoveryPolicy::kStrict) {
      report_options->ingestion = &ingestion;
    }
    auto built = obs::BuildRunReport(*log, *report_options);
    if (!built.ok()) return Fail(built.status());
    report = std::move(*built);
    degradation = report->degradation;
    Status st = WriteReportArtifacts(*report, args, "report-out",
                                     "report-dot");
    if (!st.ok()) return Fail(st);
  }

  if (args.Has("conditions")) {
    auto annotated = miner.MineWithConditions(*log);
    if (!annotated.ok()) return Fail(annotated.status());
    std::cout << annotated->ToDot("mined_process");
    if (args.Has("fdl")) {
      // Export the mined model as a runnable FDL definition.
      auto reconstructed = ReconstructDefinition(*annotated, *log);
      if (!reconstructed.ok()) return Fail(reconstructed.status());
      Status st = WriteFdlFile(*reconstructed, args.Get("fdl"), "mined");
      if (!st.ok()) return Fail(st);
      std::fprintf(stderr, "wrote runnable definition to %s\n",
                   args.Get("fdl").c_str());
    }
    for (const MinedCondition& c : annotated->conditions) {
      if (c.learned) {
        std::fprintf(stderr, "condition %s -> %s: %s (holdout %.3f)\n",
                     annotated->graph.name(c.edge.from).c_str(),
                     annotated->graph.name(c.edge.to).c_str(),
                     c.rule.c_str(), c.test_accuracy);
      }
    }
    if (args.Has("dot")) {
      std::ofstream out(args.Get("dot"));
      out << annotated->ToDot("mined_process");
    }
    return FinishWithDegradation(degradation);
  }

  Result<ProcessGraph> model = report.has_value()
                                   ? Result<ProcessGraph>(
                                         std::move(report->model))
                                   : miner.Mine(*log);
  if (!model.ok()) return Fail(model.status());
  return EmitModel(*model, args, degradation);
}

int CommandCheck(const Args& args) {
  if (args.positional.empty() || !args.Has("model")) {
    std::cerr << "usage: procmine check <log> --model=EDGEFILE\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  auto model = ReadEdgeListModel(args.Get("model"));
  if (!log.ok() || !model.ok()) {
    return Fail(log.ok() ? model.status() : log.status());
  }
  // Align the model's ids with the log's dictionary by name.
  DirectedGraph aligned(log->num_activities());
  std::vector<std::string> names = log->dictionary().names();
  for (const Edge& e : model->graph().Edges()) {
    auto from = log->dictionary().Find(model->name(e.from));
    auto to = log->dictionary().Find(model->name(e.to));
    if (!from.ok() || !to.ok()) {
      // Model activity never appears in the log: extend the vertex set.
      NodeId f = from.ok() ? *from : aligned.AddNode();
      if (!from.ok()) names.push_back(model->name(e.from));
      NodeId t = to.ok() ? *to : aligned.AddNode();
      if (!to.ok()) names.push_back(model->name(e.to));
      aligned.AddEdge(f, t);
      continue;
    }
    aligned.AddEdge(*from, *to);
  }
  ProcessGraph aligned_model(std::move(aligned), names);
  ConformanceChecker checker(&aligned_model);
  ConformanceReport report = checker.CheckLog(*log);
  std::cout << report.Summary(log->dictionary());
  return report.conformal() ? kExitOk : kExitMismatch;
}

int CommandDiff(const Args& args) {
  if (args.positional.empty() || !args.Has("model")) {
    std::cerr << "usage: procmine diff <log> --model=EDGEFILE\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  auto designed = ReadEdgeListModel(args.Get("model"));
  if (!log.ok() || !designed.ok()) {
    return Fail(log.ok() ? designed.status() : log.status());
  }
  auto mined = ProcessMiner().Mine(*log);
  if (!mined.ok()) return Fail(mined.status());
  ModelDiff diff = DiffModels(*designed, *mined);
  if (args.Has("json")) {
    // Machine-readable mode: canonically sorted discrepancies as JSON, to
    // stdout or (atomically) to the named file.
    if (args.Get("json").empty()) {
      std::cout << diff.ToJson();
    } else {
      Status st = WriteFileAtomic(args.Get("json"), diff.ToJson());
      if (!st.ok()) return Fail(st);
      std::fprintf(stderr, "wrote diff to %s\n", args.Get("json").c_str());
    }
  } else {
    std::cout << diff.Summary();
  }
  return diff.structurally_equal() ? kExitOk : kExitMismatch;
}

int CommandMonitor(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine monitor <log> [--window-executions=W] "
                 "[--slide=S] [--threshold=N|auto] [--epsilon=E] "
                 "[--bound-cutoff=P] [--min-final-window=N] "
                 "[--registry-dir=DIR] [--alerts-out=FILE] "
                 "[--report-out=FILE] [--threads=N|auto] [--stream]\n";
    return kExitUsage;
  }
  const std::string& path = args.positional[0];

  DriftOptions options;
  auto window = ParseInt64(args.Get("window-executions", "100"));
  auto slide = ParseInt64(args.Get("slide", "0"));
  auto min_final = ParseInt64(args.Get("min-final-window", "0"));
  if (!window.ok() || !slide.ok() || !min_final.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  options.window_executions = *window;
  options.slide = *slide;
  options.min_final_window = *min_final;
  if (options.window_executions < 2 || options.slide < 0 ||
      options.slide > options.window_executions ||
      options.min_final_window < 0) {
    std::cerr << "need --window-executions >= 2 and 0 <= --slide <= "
                 "--window-executions\n";
    return kExitUsage;
  }
  std::string threshold = args.Get("threshold", "auto");
  if (threshold == "auto") {
    options.noise_threshold = 0;  // Section 6 optimum T* per window
  } else {
    auto parsed = ParseInt64(threshold);
    if (!parsed.ok()) {
      std::cerr << "bad --threshold\n";
      return kExitData;
    }
    options.noise_threshold = *parsed;
  }
  if (args.Has("epsilon")) {
    auto epsilon = ParseDouble(args.Get("epsilon"));
    if (!epsilon.ok()) {
      std::cerr << "bad --epsilon\n";
      return kExitData;
    }
    options.epsilon = *epsilon;
  }
  if (args.Has("bound-cutoff")) {
    auto cutoff = ParseDouble(args.Get("bound-cutoff"));
    if (!cutoff.ok()) {
      std::cerr << "bad --bound-cutoff\n";
      return kExitData;
    }
    options.bound_cutoff = *cutoff;
  }

  std::optional<obs::ModelRegistry> registry;
  if (args.Has("registry-dir")) {
    auto opened = obs::ModelRegistry::Open(args.Get("registry-dir"));
    if (!opened.ok()) return Fail(opened.status());
    registry = std::move(*opened);
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
    auto policy = RecoveryFlag(args);
    if (!policy.ok()) return Fail(policy.status());
    StreamOptions stream_options;
    stream_options.recovery = *policy;
    auto stats = StreamLogFile(
        path,
        [&monitor](const Execution& exec, const ActivityDictionary& dict) {
          return monitor.Add(exec, dict);
        },
        stream_options);
    if (!stats.ok()) return Fail(stats.status());
  } else {
    auto log = ReadLogAuto(path, args);
    if (!log.ok()) return Fail(log.status());
    Status st = monitor.AddLog(*log);
    if (!st.ok()) return Fail(st);
  }
  Status st = monitor.Finish();
  if (!st.ok()) return Fail(st);

  // Deterministic JSON-lines alert feed.
  std::string feed;
  for (const DriftAlert& alert : monitor.alerts()) {
    feed += alert.ToJsonLine();
  }
  if (args.Has("alerts-out")) {
    st = WriteFileAtomic(args.Get("alerts-out"), feed);
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote %zu alerts to %s\n", monitor.alerts().size(),
                 args.Get("alerts-out").c_str());
  } else {
    std::cout << feed;
  }

  DriftReport report = monitor.BuildReport(path);
  if (args.Has("report-out")) {
    st = WriteFileAtomic(args.Get("report-out"), report.ToJson());
    if (!st.ok()) return Fail(st);
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

int CommandStats(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine stats <log|store-dir>\n";
    return 2;
  }
  // A segment store reports its footprint from the manifest alone — no
  // segment is decoded, so this stays cheap at any store size.
  if (IsSegmentStoreDir(args.positional[0])) {
    auto policy = RecoveryFlag(args);
    if (!policy.ok()) return Fail(policy.status());
    auto store_options = StoreOptionsFromArgs(args, *policy, nullptr);
    if (!store_options.ok()) return Fail(store_options.status());
    auto store = SegmentStore::Open(args.positional[0], *store_options);
    if (!store.ok()) return Fail(store.status());
    SegmentStoreFootprint fp = store->Footprint();
    std::printf("segment store %s\n", args.positional[0].c_str());
    std::printf("  activities:       %d\n", store->dictionary().size());
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
                std::string(RecoveryPolicyName(store_options->recovery))
                    .c_str());

    // Per-segment damage table from the manifest plus a stat() per file —
    // still no segment is decoded, so operators can size the damage of a
    // torn store without paying for a mine. --verify-crc additionally
    // checksums each file's payload (reads bytes, decodes nothing).
    const bool verify_crc = args.Has("verify-crc");
    int64_t damaged = 0;
    int64_t executions_at_risk = 0;
    std::printf("  segments (executions, disk bytes, status%s):\n",
                verify_crc ? "; --verify-crc on" : "");
    for (const SegmentInfo& info : store->segments()) {
      const std::string path = args.positional[0] + "/" + info.file;
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
    return 0;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  LogStats stats = ComputeLogStats(*log);
  std::cout << stats.ToString(log->dictionary());
  std::vector<LogIssue> issues = ValidateLog(*log);
  if (issues.empty()) {
    std::cout << "validation: clean\n";
  } else {
    std::cout << "validation: " << issues.size() << " issues\n";
    for (const LogIssue& issue : issues) {
      std::cout << "  " << issue.process_instance << ": "
                << ToString(issue.kind) << " " << issue.detail << "\n";
    }
  }
  return 0;
}

/// `procmine top <status-file>`: one-shot pretty-printer for the heartbeat
/// file a `--status-file` run keeps rewriting. Exit 0 when the run looks
/// alive, 1 when the heartbeat is stale (likely hung or dead), 3 when the
/// file is unreadable or unparseable.
int CommandTop(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine top <status-file>\n";
    return kExitUsage;
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    return Fail(Status::IOError(
        StrFormat("cannot read status file %s", args.positional[0].c_str())));
  }
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto doc = json::Parse(text);
  if (!doc.ok()) return Fail(doc.status());

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
  const json::Value* root = &*doc;
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

int CommandVariants(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine variants <log> [--top=K]\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  auto top = ParseInt64(args.Get("top", "20"));
  if (!top.ok()) {
    std::cerr << "bad --top\n";
    return kExitData;
  }
  std::vector<int64_t> multiplicity;
  EventLog variants = DeduplicateSequences(*log, &multiplicity);
  // Sort variant indices by multiplicity, descending.
  std::vector<size_t> order(variants.num_executions());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return multiplicity[a] > multiplicity[b];
  });
  std::printf("%zu executions, %zu distinct variants\n",
              log->num_executions(), variants.num_executions());
  for (size_t rank = 0;
       rank < order.size() && rank < static_cast<size_t>(*top); ++rank) {
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
  return 0;
}

/// Mines with `mine`'s flags and a provenance recorder attached, then
/// renders the recorder: the step-by-step narration, or one --edge verdict.
int CommandExplain(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine explain <log> [--edge=From,To] "
                 "[--algorithm=...] [--threshold=N|auto] [--threads=N|auto] "
                 "[--chunk-size=N]\n";
    return kExitUsage;
  }
  std::vector<std::string> edge;
  if (args.Has("edge")) {
    edge = Split(args.Get("edge"), ',');
    if (edge.size() != 2) {
      std::cerr << "--edge expects From,To\n";
      return kExitUsage;
    }
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  auto options = MinerOptionsFromArgs(args, &*log);
  if (!options.ok()) return Fail(options.status());
  ProvenanceRecorder recorder;
  options->provenance = &recorder;
  auto model = ProcessMiner(*options).Mine(*log);
  if (!model.ok()) return Fail(model.status());
  if (edge.empty()) {
    std::cout << NarrateMining(recorder);
    return kExitOk;
  }
  auto why = ExplainEdge(recorder, *log, edge[0], edge[1]);
  if (!why.ok()) return Fail(why.status());
  std::cout << *why;
  return kExitOk;
}

int CommandPerf(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine perf <log> [--dot=FILE]\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  auto model = ProcessMiner().Mine(*log);
  if (!model.ok()) return Fail(model.status());
  PerformanceReport report = AnalyzePerformance(*model, *log);
  std::cout << report.Summary(log->dictionary());
  if (args.Has("dot")) {
    std::ofstream out(args.Get("dot"));
    if (!out) {
      std::cerr << "cannot write " << args.Get("dot") << "\n";
      return kExitData;
    }
    out << PerformanceDot(*model, report);
  }
  return 0;
}

int CommandNoise(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine noise <log>\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  double epsilon = EstimateNoiseRate(*log);
  std::printf("estimated out-of-order rate (epsilon): %.4f\n", epsilon);
  std::printf("suggested threshold T for m=%zu executions: %lld\n",
              log->num_executions(),
              static_cast<long long>(SuggestNoiseThreshold(*log)));
  return 0;
}

int CommandReport(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine report <log> [--algorithm=...] "
                 "[--threshold=N|auto] [--threads=N|auto] [--chunk-size=N] "
                 "[--out=FILE] "
                 "[--dot=FILE] [--sweep=T1,T2,...] [--unstable-cutoff=P] "
                 "[--recovery=strict|skip|quarantine] [--quarantine-out=FILE] "
                 "[--deadline-ms=N] [--max-memory-mb=N] [--max-executions=N]\n";
    return kExitUsage;
  }
  // Reports are built from recorded counters, so recording must be on even
  // without --metrics-out.
  obs::SetMetricsEnabled(true);
  auto limits = BudgetLimitsFromArgs(args);
  if (!limits.ok()) return Fail(limits.status());
  RunBudget budget(*limits);
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);
  PROCMINE_PHASE("report.build");
  IngestionReport ingestion;
  auto log = ReadLogAuto(args.positional[0], args, &ingestion);
  if (!log.ok()) return Fail(log.status());
  auto miner = MinerOptionsFromArgs(args, &*log);
  if (!miner.ok()) return Fail(miner.status());
  miner->budget = &budget;
  auto options = ReportOptionsFromArgs(args, *miner);
  if (!options.ok()) return Fail(options.status());
  if (ingestion.policy != RecoveryPolicy::kStrict) {
    options->ingestion = &ingestion;
  }
  auto report = obs::BuildRunReport(*log, *options);
  if (!report.ok()) return Fail(report.status());
  Status st = WriteReportArtifacts(*report, args, "out", "dot");
  if (!st.ok()) return Fail(st);
  std::cout << report->SummaryText() << "\n"
            << report->SensitivityTableText();
  return FinishWithDegradation(report->degradation);
}

/// `synth --drift=KIND`: a known process whose behaviour changes at --cut,
/// for measuring drift-detection latency (see synth/drift_scenario.h).
int CommandSynthDrift(const Args& args) {
  auto kind = ParseDriftKind(args.Get("drift"));
  if (!kind.ok()) return Fail(kind.status());
  DriftScenarioOptions options;
  options.kind = *kind;
  auto executions = ParseInt64(args.Get("executions"));
  auto seed = ParseInt64(args.Get("seed", "1"));
  if (!executions.ok() || !seed.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  options.num_executions = *executions;
  options.seed = static_cast<uint64_t>(*seed);
  options.cut = options.num_executions / 2;
  if (args.Has("cut")) {
    auto cut = ParseInt64(args.Get("cut"));
    if (!cut.ok()) {
      std::cerr << "bad --cut\n";
      return kExitData;
    }
    options.cut = *cut;
  }
  if (args.Has("swap-rate")) {
    auto rate = ParseDouble(args.Get("swap-rate"));
    if (!rate.ok()) {
      std::cerr << "bad --swap-rate\n";
      return kExitData;
    }
    options.swap_rate = *rate;
  }
  if (args.Has("shift-from")) {
    auto p = ParseDouble(args.Get("shift-from"));
    if (!p.ok()) {
      std::cerr << "bad --shift-from\n";
      return kExitData;
    }
    options.shift_from = *p;
  }
  if (args.Has("shift-to")) {
    auto p = ParseDouble(args.Get("shift-to"));
    if (!p.ok()) {
      std::cerr << "bad --shift-to\n";
      return kExitData;
    }
    options.shift_to = *p;
  }
  if (args.Has("ramp")) {
    auto ramp = ParseInt64(args.Get("ramp"));
    if (!ramp.ok()) {
      std::cerr << "bad --ramp\n";
      return kExitData;
    }
    options.ramp_executions = *ramp;
  }
  auto log = GenerateDriftLog(options);
  if (!log.ok()) return Fail(log.status());
  Status st = WriteLogAuto(*log, args.Get("out"));
  if (!st.ok()) return Fail(st);
  std::fprintf(stderr,
               "wrote %zu executions (drift=%s at cut %lld) to %s\n",
               log->num_executions(),
               std::string(DriftKindName(options.kind)).c_str(),
               static_cast<long long>(options.cut), args.Get("out").c_str());
  return 0;
}

/// synth --stream-out=DIR: the deterministic streamed generator. Walks the
/// same truth DAG with the same RNG as --out, but hands each execution
/// straight to a SegmentedLogWriter — the log is never materialized, so
/// --events can run to 10^9 on a bounded-memory container. Sized by
/// --executions, --events (raw events; stops at whichever comes first), or
/// both.
int CommandSynthStream(const Args& args) {
  if (!args.Has("activities") ||
      (!args.Has("executions") && !args.Has("events"))) {
    std::cerr << "usage: procmine synth --activities=N --stream-out=DIR "
                 "(--executions=M | --events=E) [--density=D] [--seed=S] "
                 "[--segment-events=N] [--max-memory-mb=N] "
                 "[--truth-dot=FILE]\n";
    return kExitUsage;
  }
  auto activities = ParseInt64(args.Get("activities"));
  auto seed = ParseInt64(args.Get("seed", "1"));
  if (!activities.ok() || !seed.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  int64_t max_events = 0;
  size_t num_executions = std::numeric_limits<size_t>::max() / 2;
  if (args.Has("events")) {
    auto events = ParseInt64(args.Get("events"));
    if (!events.ok() || *events <= 0) {
      std::cerr << "bad --events\n";
      return kExitData;
    }
    max_events = *events;
  }
  if (args.Has("executions")) {
    auto executions = ParseInt64(args.Get("executions"));
    if (!executions.ok() || *executions <= 0) {
      std::cerr << "bad --executions\n";
      return kExitData;
    }
    num_executions = static_cast<size_t>(*executions);
  }

  RandomDagOptions dag_options;
  dag_options.num_activities = static_cast<int32_t>(*activities);
  dag_options.seed = static_cast<uint64_t>(*seed);
  if (args.Has("density")) {
    auto density = ParseDouble(args.Get("density"));
    if (!density.ok()) {
      std::cerr << "bad --density\n";
      return kExitData;
    }
    dag_options.edge_density = *density;
  } else {
    dag_options.edge_density = PaperEdgeDensity(dag_options.num_activities);
  }
  ProcessGraph truth = GenerateRandomDag(dag_options);

  auto limits = BudgetLimitsFromArgs(args);
  if (!limits.ok()) return Fail(limits.status());
  RunBudget budget(*limits);
  budget.Start();
  obs::TelemetryBudgetScope telemetry_budget(&budget);
  PROCMINE_PHASE("synth.stream");
  auto store_options =
      StoreOptionsFromArgs(args, RecoveryPolicy::kStrict, &budget);
  if (!store_options.ok()) return Fail(store_options.status());
  auto writer =
      SegmentedLogWriter::Create(args.Get("stream-out"), *store_options);
  if (!writer.ok()) return Fail(writer.status());

  ActivityDictionary dict;
  for (NodeId v = 0; v < truth.num_activities(); ++v) {
    dict.Intern(truth.name(v));
  }
  WalkLogOptions log_options;
  log_options.num_executions = num_executions;
  log_options.seed = static_cast<uint64_t>(*seed) + 1;
  StreamWalkStats stats;
  Status st = StreamWalkLog(
      truth, log_options, max_events,
      [&](Execution&& exec) { return writer->Append(exec, dict); }, &stats);
  if (st.ok()) st = writer->Finish();
  if (!st.ok()) return Fail(st);
  if (args.Has("truth-dot")) {
    PROCMINE_CHECK_OK(
        WriteDotFile(truth.graph(), truth.names(), args.Get("truth-dot")));
  }
  std::fprintf(stderr,
               "streamed %lld executions (%lld events) over %d activities "
               "(%lld true edges) into %lld segments at %s "
               "(%lld budget-forced seals)\n",
               static_cast<long long>(stats.executions),
               static_cast<long long>(stats.events), truth.num_activities(),
               static_cast<long long>(truth.graph().num_edges()),
               static_cast<long long>(writer->segments_sealed()),
               args.Get("stream-out").c_str(),
               static_cast<long long>(writer->spill_seals()));
  return 0;
}

int CommandSynth(const Args& args) {
  if (args.Has("stream-out")) return CommandSynthStream(args);
  if (args.Has("drift")) {
    if (!args.Has("executions") || !args.Has("out")) {
      std::cerr << "usage: procmine synth --drift=none|edge_added|"
                   "edge_removed|condition_flipped|frequency_shift "
                   "--executions=M [--cut=N] [--seed=S] [--swap-rate=E] "
                   "[--shift-from=P] [--shift-to=P] [--ramp=N] --out=FILE\n";
      return 2;
    }
    return CommandSynthDrift(args);
  }
  if (!args.Has("activities") || !args.Has("executions") ||
      !args.Has("out")) {
    std::cerr << "usage: procmine synth --activities=N --executions=M "
                 "[--density=D] [--seed=S] --out=FILE [--truth-dot=FILE] "
                 "(or: synth --drift=KIND --executions=M --out=FILE)\n";
    return 2;
  }
  auto activities = ParseInt64(args.Get("activities"));
  auto executions = ParseInt64(args.Get("executions"));
  auto seed = ParseInt64(args.Get("seed", "1"));
  if (!activities.ok() || !executions.ok() || !seed.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  RandomDagOptions dag_options;
  dag_options.num_activities = static_cast<int32_t>(*activities);
  dag_options.seed = static_cast<uint64_t>(*seed);
  if (args.Has("density")) {
    auto density = ParseDouble(args.Get("density"));
    if (!density.ok()) {
      std::cerr << "bad --density\n";
      return kExitData;
    }
    dag_options.edge_density = *density;
  } else {
    dag_options.edge_density =
        PaperEdgeDensity(dag_options.num_activities);
  }
  ProcessGraph truth = GenerateRandomDag(dag_options);
  WalkLogOptions log_options;
  log_options.num_executions = static_cast<size_t>(*executions);
  log_options.seed = static_cast<uint64_t>(*seed) + 1;
  auto log = GenerateWalkLog(truth, log_options);
  if (!log.ok()) return Fail(log.status());
  Status st = WriteLogAuto(*log, args.Get("out"));
  if (!st.ok()) return Fail(st);
  if (args.Has("truth-dot")) {
    PROCMINE_CHECK_OK(WriteDotFile(truth.graph(), truth.names(),
                                   args.Get("truth-dot")));
  }
  std::fprintf(stderr,
               "wrote %zu executions over %d activities (%lld true edges) "
               "to %s\n",
               log->num_executions(), truth.num_activities(),
               static_cast<long long>(truth.graph().num_edges()),
               args.Get("out").c_str());
  return 0;
}

int CommandSimulate(const Args& args) {
  if (!args.Has("definition") || !args.Has("executions") ||
      !args.Has("out")) {
    std::cerr << "usage: procmine simulate --definition=FDL "
                 "--executions=M [--seed=S] [--cyclic] [--agents=K "
                 "--max-duration=D] --out=FILE\n";
    return 2;
  }
  bool cyclic = args.Has("cyclic");
  auto def = ReadFdlFile(args.Get("definition"), !cyclic);
  if (!def.ok()) return Fail(def.status());
  auto executions = ParseInt64(args.Get("executions"));
  auto seed = ParseInt64(args.Get("seed", "1"));
  if (!executions.ok() || !seed.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  EngineOptions options;
  if (cyclic) options.mode = ExecutionMode::kTokenFire;
  if (args.Has("agents")) {
    auto agents = ParseInt64(args.Get("agents"));
    auto max_duration = ParseInt64(args.Get("max-duration", "10"));
    if (!agents.ok() || !max_duration.ok()) {
      std::cerr << "bad numeric flag\n";
      return kExitData;
    }
    options.num_agents = static_cast<int>(*agents);
    options.min_duration = 1;
    options.max_duration = *max_duration;
  }
  Engine engine(&*def, options);
  auto log = engine.GenerateLog(static_cast<size_t>(*executions),
                                static_cast<uint64_t>(*seed));
  if (!log.ok()) return Fail(log.status());
  Status st = WriteLogAuto(*log, args.Get("out"));
  if (!st.ok()) return Fail(st);
  std::fprintf(stderr, "simulated %zu executions to %s\n",
               log->num_executions(), args.Get("out").c_str());
  return 0;
}

int CommandPatterns(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: procmine patterns <log> [--support=N] "
                 "[--max-length=K] [--maximal]\n";
    return 2;
  }
  auto log = ReadLogAuto(args.positional[0], args);
  if (!log.ok()) return Fail(log.status());
  SequentialPatternOptions options;
  auto support = ParseInt64(args.Get("support", "2"));
  auto max_length = ParseInt64(args.Get("max-length", "6"));
  if (!support.ok() || !max_length.ok()) {
    std::cerr << "bad numeric flag\n";
    return kExitData;
  }
  options.min_support = *support;
  options.max_length = static_cast<int>(*max_length);
  options.max_patterns = 100000;
  auto patterns = MineSequentialPatterns(*log, options);
  if (args.Has("maximal")) patterns = MaximalPatterns(patterns);
  for (const SequentialPattern& p : patterns) {
    std::cout << p.ToString(log->dictionary()) << "\n";
  }
  std::fprintf(stderr, "%zu patterns\n", patterns.size());
  return 0;
}

int CommandConvert(const Args& args) {
  if (args.positional.size() != 2) {
    std::cerr << "usage: procmine convert <in> <out> [--to-store "
                 "[--segment-events=N]]\n";
    return 2;
  }
  // Segment stores take part in conversion: a store input is materialized
  // (honoring --recovery salvage), --to-store writes the output as one.
  Result<EventLog> log = Status::Internal("unreachable");
  if (IsSegmentStoreDir(args.positional[0])) {
    auto policy = RecoveryFlag(args);
    if (!policy.ok()) return Fail(policy.status());
    auto store_options = StoreOptionsFromArgs(args, *policy, nullptr);
    if (!store_options.ok()) return Fail(store_options.status());
    auto store = SegmentStore::Open(args.positional[0], *store_options);
    if (!store.ok()) return Fail(store.status());
    log = store->Materialize();
    if (log.ok() && store->report().AnyLoss()) {
      std::fprintf(stderr, "%s", store->report().SummaryText().c_str());
    }
  } else {
    log = ReadLogAuto(args.positional[0], args);
  }
  if (!log.ok()) return Fail(log.status());
  if (args.Has("to-store")) {
    auto store_options =
        StoreOptionsFromArgs(args, RecoveryPolicy::kStrict, nullptr);
    if (!store_options.ok()) return Fail(store_options.status());
    auto writer =
        SegmentedLogWriter::Create(args.positional[1], *store_options);
    if (!writer.ok()) return Fail(writer.status());
    Status st = writer->AppendLog(*log);
    if (st.ok()) st = writer->Finish();
    if (!st.ok()) return Fail(st);
    std::fprintf(stderr, "wrote %lld executions into %lld segments at %s\n",
                 static_cast<long long>(writer->executions()),
                 static_cast<long long>(writer->segments_sealed()),
                 args.positional[1].c_str());
    return 0;
  }
  Status st = WriteLogAuto(*log, args.positional[1]);
  if (!st.ok()) return Fail(st);
  return 0;
}

void PrintUsage() {
  std::cerr <<
      "procmine: mining process models from workflow logs\n"
      "commands:\n"
      "  mine <log|store-dir> [--algorithm=...] [--threshold=N|auto]\n"
      "             [--dot=FILE]\n"
      "             [--threads=N|auto] [--chunk-size=N] [--ascii]\n"
      "             [--conditions [--fdl=FILE]]\n"
      "             [--report-out=FILE] [--report-dot=FILE]\n"
      "             [--spill-dir=DIR [--segment-events=N]]\n"
      "             [--resident-mb=N]\n"
      "             (a segment-store directory mines out of core with\n"
      "              bounded resident memory and a byte-identical model;\n"
      "              --spill-dir streams a text log into one first)\n"
      "             (--report-out: full run report JSON — edge provenance,\n"
      "              conformance verdicts, noise-threshold sensitivity;\n"
      "              --report-dot: DOT with dropped candidates dashed gray)\n"
      "             (--threads: worker threads for the work-stealing mining\n"
      "              passes; auto = all hardware threads, 1 = sequential;\n"
      "              --chunk-size: executions per stolen chunk, 0 = auto;\n"
      "              the mined model is identical for every combination)\n"
      "  check <log> --model=EDGEFILE\n"
      "  diff <log> --model=EDGEFILE\n"
      "  stats <log|store-dir>   (stores: segment/byte/cache footprint)\n"
      "  perf <log> [--dot=FILE]\n"
      "  explain <log> [--edge=From,To] [--algorithm=...]\n"
      "          [--threshold=N|auto] [--threads=N|auto] [--chunk-size=N]\n"
      "          (mines as `mine` does, with the same flags and defaults,\n"
      "           and narrates the run step by step or explains one edge\n"
      "           from the recorded edge provenance)\n"
      "  variants <log> [--top=K]\n"
      "  noise <log>\n"
      "  report <log> [--algorithm=...] [--threshold=N|auto] [--out=FILE]\n"
      "         [--dot=FILE] [--chunk-size=N] [--sweep=T1,T2,...]\n"
      "         [--unstable-cutoff=P]\n"
      "  monitor <log> [--window-executions=W] [--slide=S]\n"
      "          [--threshold=N|auto] [--epsilon=E] [--bound-cutoff=P]\n"
      "          [--min-final-window=N] [--registry-dir=DIR]\n"
      "          [--alerts-out=FILE] [--report-out=FILE] [--stream]\n"
      "          (windowed drift monitoring: mines every window, keeps a\n"
      "           versioned model registry, emits a JSON-lines alert feed\n"
      "           and a schema_version-3 drift report; exit 1 = drift)\n"
      "  synth --activities=N --executions=M [--density=D] [--seed=S]\n"
      "        --out=FILE [--truth-dot=FILE]\n"
      "  synth --activities=N --stream-out=DIR (--executions=M | --events=E)\n"
      "        [--segment-events=N] [--max-memory-mb=N]\n"
      "        (streamed generator: writes a segment store directly, never\n"
      "         materializing the log; RNG-identical to --out)\n"
      "  synth --drift=none|edge_added|edge_removed|condition_flipped|\n"
      "        frequency_shift --executions=M [--cut=N] [--swap-rate=E]\n"
      "        [--shift-from=P] [--shift-to=P] [--ramp=N] [--seed=S]\n"
      "        --out=FILE   (drift scenario with a known change point)\n"
      "  simulate --definition=FDL --executions=M [--seed=S] [--cyclic]\n"
      "           [--agents=K --max-duration=D] --out=FILE\n"
      "  patterns <log> [--support=N] [--max-length=K] [--maximal]\n"
      "  convert <in> <out> [--to-store [--segment-events=N]]\n"
      "  top <status-file>   (pretty-print the heartbeat a --status-file\n"
      "      run keeps rewriting; exit 0 fresh, 1 stale)\n"
      "  serve --socket=PATH [--journal-dir=DIR] [--registry-root=DIR]\n"
      "        [--threads=N] [--queue-batches=N] [--max-frame-mb=N]\n"
      "        [--max-queued-mb=N] [--idle-timeout-ms=N] [--max-sessions=N]\n"
      "        [--no-fsync] [--max-memory-mb=N global shed high-water]\n"
      "        [session defaults: --threshold=N --recovery=POLICY\n"
      "         --session-deadline-ms=N --session-max-memory-mb=N\n"
      "         --session-max-executions=N]\n"
      "        (streaming mining daemon; SIGTERM drains gracefully;\n"
      "         docs/serving.md)\n"
      "  client --socket=PATH --session=NAME [log] [--batch-executions=N]\n"
      "         [--query | --query-out=FILE] [--close] [--ping] [--garbage]\n"
      "         (serve-protocol client; --garbage runs hostile-frame attacks\n"
      "          and exits 0 iff the server survives them all)\n"
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
      "exit codes: 0 ok, 1 analysis mismatch, 2 usage, 3 data error,\n"
      "4 budget-degraded, 5 internal\n"
      "log formats by extension: .bin (binary), .xes (XES XML), .csv\n"
      "(export only), anything else = text event format\n";
}

/// Applies --log-level / --log-json / --trace-out / --metrics-out before the
/// command runs, and starts the background telemetry sampler when any of
/// --telemetry-out / --metrics-openmetrics / --status-file is present.
/// Returns false (after printing why) on a malformed value.
bool SetUpObservability(const std::string& command, const Args& args) {
  if (args.Has("log-level")) {
    LogLevel level;
    if (!ParseLogLevel(args.Get("log-level"), &level)) {
      std::cerr << "bad --log-level: " << args.Get("log-level")
                << " (want debug|info|warning|error)\n";
      return false;
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
    if (args.Has("telemetry-interval-ms")) {
      auto interval = ParseInt64(args.Get("telemetry-interval-ms"));
      if (!interval.ok()) {
        std::cerr << interval.status().ToString() << "\n";
        return false;
      }
      topt.interval_ms = *interval;
    }
    // The sampler reads the registry, so telemetry implies metrics.
    obs::SetMetricsEnabled(true);
    Status st = obs::StartGlobalTelemetry(topt);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return false;
    }
  }
  return true;
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

// ---------------------------------------------------------------------------
// serve / client — the streaming mining server (docs/serving.md).

std::atomic<bool> g_serve_stop{false};

void ServeStopHandler(int) { g_serve_stop.store(true); }

/// Builds the per-session spec from --threshold, --recovery, and the
/// --session-* budget flags (the plain --deadline-ms family is the GLOBAL
/// server budget on `serve`, so sessions get their own namespace).
Result<serve::SessionSpec> SessionSpecFromArgs(const Args& args) {
  serve::SessionSpec spec;
  if (args.Has("threshold")) {
    PROCMINE_ASSIGN_OR_RETURN(spec.noise_threshold,
                              ParseInt64(args.Get("threshold")));
  }
  if (args.Has("session-deadline-ms")) {
    PROCMINE_ASSIGN_OR_RETURN(spec.limits.deadline_ms,
                              ParseInt64(args.Get("session-deadline-ms")));
  }
  if (args.Has("session-max-memory-mb")) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t mb,
                              ParseInt64(args.Get("session-max-memory-mb")));
    spec.limits.max_memory_bytes = mb * (int64_t{1} << 20);
  }
  if (args.Has("session-max-executions")) {
    PROCMINE_ASSIGN_OR_RETURN(spec.limits.max_executions,
                              ParseInt64(args.Get("session-max-executions")));
  }
  PROCMINE_ASSIGN_OR_RETURN(spec.recovery, RecoveryFlag(args));
  return spec;
}

int CommandServe(const Args& args) {
  if (!args.Has("socket")) {
    std::cerr << "serve requires --socket=PATH\n";
    return kExitUsage;
  }
  serve::ServeOptions options;
  options.journal_dir = args.Get("journal-dir");
  options.registry_root = args.Get("registry-root");
  options.threads = ThreadsFlag(args);
  options.fsync_journal = !args.Has("no-fsync");
  auto int_flag = [&args](const char* key, int64_t* out) -> Status {
    if (!args.Has(key)) return Status::OK();
    PROCMINE_ASSIGN_OR_RETURN(*out, ParseInt64(args.Get(key)));
    return Status::OK();
  };
  int64_t queue_batches = options.queue_batches;
  int64_t max_frame_mb = -1;
  int64_t max_queued_mb = -1;
  Status flags_ok = Status::OK();
  if (flags_ok.ok()) flags_ok = int_flag("queue-batches", &queue_batches);
  if (flags_ok.ok()) flags_ok = int_flag("max-frame-mb", &max_frame_mb);
  if (flags_ok.ok()) flags_ok = int_flag("max-queued-mb", &max_queued_mb);
  if (flags_ok.ok()) {
    flags_ok = int_flag("idle-timeout-ms", &options.idle_timeout_ms);
  }
  if (flags_ok.ok()) flags_ok = int_flag("max-sessions", &options.max_sessions);
  if (!flags_ok.ok()) {
    std::cerr << flags_ok.ToString() << "\n";
    return kExitUsage;
  }
  options.queue_batches = static_cast<int>(queue_batches);
  if (max_frame_mb >= 0) options.max_frame_bytes = max_frame_mb << 20;
  if (max_queued_mb >= 0) options.max_queued_bytes = max_queued_mb << 20;
  Result<RunBudget::Limits> global = BudgetLimitsFromArgs(args);
  if (!global.ok()) return Fail(global.status());
  options.global_limits = *global;
  Result<serve::SessionSpec> spec = SessionSpecFromArgs(args);
  if (!spec.ok()) return Fail(spec.status());
  options.default_spec = *spec;

  // A client vanishing mid-write must cost that connection an EPIPE, not
  // the process a SIGPIPE. SIGTERM/SIGINT flip the stop flag the accept and
  // connection loops poll, turning the signal into a graceful drain.
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, ServeStopHandler);
  std::signal(SIGINT, ServeStopHandler);

  serve::ServeCore core(options);
  Result<int64_t> recovered = core.RecoverFromJournals();
  if (!recovered.ok()) return Fail(recovered.status());
  if (*recovered > 0 || core.stats().journals_skipped > 0) {
    std::fprintf(stderr,
                 "recovered %lld session(s) from journals "
                 "(%lld torn tail(s) truncated, %lld journal(s) skipped)\n",
                 static_cast<long long>(*recovered),
                 static_cast<long long>(core.stats().journals_torn),
                 static_cast<long long>(core.stats().journals_skipped));
  }

  serve::SocketServer server(&core, args.Get("socket"),
                             options.max_frame_bytes, &g_serve_stop);
  Status status = server.Start();
  if (!status.ok()) return Fail(status);
  std::fprintf(stderr, "serving on %s\n", args.Get("socket").c_str());
  status = server.Serve();
  if (!status.ok()) return Fail(status);
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
  if (!drain.ok()) return Fail(drain);
  return kExitOk;
}

/// Copies executions [begin, end) into a self-contained batch log with its
/// own dictionary (a kBatch body must decode standalone).
EventLog SliceLog(const EventLog& log, size_t begin, size_t end) {
  EventLog slice;
  for (size_t i = begin; i < end; ++i) {
    const Execution& exec = log.execution(i);
    Execution copy(exec.name());
    for (const ActivityInstance& instance : exec.instances()) {
      ActivityInstance mapped = instance;
      mapped.activity =
          slice.dictionary().Intern(log.dictionary().Name(instance.activity));
      copy.Append(std::move(mapped));
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
int RunGarbageClient(const std::string& socket_path) {
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
  Result<serve::ServeClient> probe = serve::ServeClient::Connect(socket_path);
  if (!probe.ok()) return Fail(probe.status());
  Result<serve::ResponseFrame> pong =
      probe->Call(serve::FrameType::kPing, "");
  if (!pong.ok() || pong->code != serve::ResponseCode::kOk) {
    std::fprintf(stderr, "garbage client: server did NOT survive\n");
    return kExitData;
  }
  std::fprintf(stderr, "garbage client: server survived %zu attacks\n",
               attacks.size());
  return kExitOk;
}

int CommandClient(const Args& args) {
  if (!args.Has("socket")) {
    std::cerr << "client requires --socket=PATH\n";
    return kExitUsage;
  }
  std::signal(SIGPIPE, SIG_IGN);
  const std::string socket_path = args.Get("socket");
  if (args.Has("garbage")) return RunGarbageClient(socket_path);

  Result<serve::ServeClient> connected =
      serve::ServeClient::Connect(socket_path);
  if (!connected.ok()) return Fail(connected.status());
  serve::ServeClient client = connected.MoveValueOrDie();

  if (args.Has("ping") && !args.Has("session")) {
    Result<serve::ResponseFrame> pong =
        client.Call(serve::FrameType::kPing, "");
    if (!pong.ok()) return Fail(pong.status());
    PrintAck("ping", *pong);
    return ExitForResponseCode(pong->code);
  }
  if (!args.Has("session")) {
    std::cerr << "client requires --session=NAME (or --ping / --garbage)\n";
    return kExitUsage;
  }
  const std::string session = args.Get("session");
  int exit_code = kExitOk;

  Result<serve::SessionSpec> spec = SessionSpecFromArgs(args);
  if (!spec.ok()) return Fail(spec.status());
  Result<serve::ResponseFrame> open = client.Call(
      serve::FrameType::kOpen, session, serve::EncodeSessionSpec(*spec));
  if (!open.ok()) return Fail(open.status());
  PrintAck("open", *open);
  exit_code = WorseExit(exit_code, ExitForResponseCode(open->code));

  if (!args.positional.empty()) {
    Result<EventLog> log = ReadLogAuto(args.positional[0], args);
    if (!log.ok()) return Fail(log.status());
    int64_t batch_executions =
        static_cast<int64_t>(log->num_executions());
    if (args.Has("batch-executions")) {
      Result<int64_t> parsed = ParseInt64(args.Get("batch-executions"));
      if (!parsed.ok() || *parsed <= 0) {
        std::cerr << "--batch-executions must be a positive integer\n";
        return kExitUsage;
      }
      batch_executions = *parsed;
    }
    for (size_t begin = 0; begin < log->num_executions();
         begin += static_cast<size_t>(batch_executions)) {
      size_t end = std::min(log->num_executions(),
                            begin + static_cast<size_t>(batch_executions));
      std::string body = EncodeBinaryLog(SliceLog(*log, begin, end));
      Result<serve::ResponseFrame> ack =
          client.Call(serve::FrameType::kBatch, session, body);
      if (!ack.ok()) return Fail(ack.status());
      PrintAck("batch", *ack);
      exit_code = WorseExit(exit_code, ExitForResponseCode(ack->code));
    }
  }

  if (args.Has("query") || args.Has("query-out")) {
    Result<serve::ResponseFrame> model =
        client.Call(serve::FrameType::kQuery, session);
    if (!model.ok()) return Fail(model.status());
    PrintAck("query", *model);
    exit_code = WorseExit(exit_code, ExitForResponseCode(model->code));
    if (model->code == serve::ResponseCode::kOk ||
        model->code == serve::ResponseCode::kDegraded) {
      if (args.Has("query-out")) {
        Status written = WriteFileAtomic(args.Get("query-out"), model->body);
        if (!written.ok()) return Fail(written);
      } else {
        std::fwrite(model->body.data(), 1, model->body.size(), stdout);
      }
    }
  }

  if (args.Has("close")) {
    Result<serve::ResponseFrame> closed =
        client.Call(serve::FrameType::kClose, session);
    if (!closed.ok()) return Fail(closed.status());
    PrintAck("close", *closed);
    exit_code = WorseExit(exit_code, ExitForResponseCode(closed->code));
  }
  return exit_code;
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "mine") return CommandMine(args);
  if (command == "check") return CommandCheck(args);
  if (command == "diff") return CommandDiff(args);
  if (command == "stats") return CommandStats(args);
  if (command == "perf") return CommandPerf(args);
  if (command == "explain") return CommandExplain(args);
  if (command == "variants") return CommandVariants(args);
  if (command == "noise") return CommandNoise(args);
  if (command == "report") return CommandReport(args);
  if (command == "monitor") return CommandMonitor(args);
  if (command == "synth") return CommandSynth(args);
  if (command == "simulate") return CommandSimulate(args);
  if (command == "patterns") return CommandPatterns(args);
  if (command == "convert") return CommandConvert(args);
  if (command == "top") return CommandTop(args);
  if (command == "serve") return CommandServe(args);
  if (command == "client") return CommandClient(args);
  PrintUsage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Arm PROCMINE_FAILPOINTS sites first so fault-injection tests exercise
  // the whole binary, ingestion included.
  failpoint::ActivateFromEnv();
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  std::string command = argv[1];
  Args args = ParseArgs(argc, argv);
  if (!SetUpObservability(command, args)) return 2;
  int rc = Dispatch(command, args);
  return FlushObservability(args, rc);
}
