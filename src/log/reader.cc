#include "log/reader.h"

#include <algorithm>
#include <cstring>

#include "log/event_assembly.h"
#include "log/name_index.h"
#include "log/text_line.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/mapped_file.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace procmine {

namespace {

/// One parser shard's output: compact events over shard-local name tables,
/// or the shard's first error. Name views alias the input text.
struct ParseShardResult {
  std::vector<std::string_view> instance_names;
  std::vector<std::string_view> activity_names;
  std::vector<CompactEvent> events;
  std::vector<int64_t> outputs;
  int64_t lines = 0;       // lines consumed (complete count iff no error)
  int64_t error_line = 0;  // shard-local 1-based line of the first error
  std::string error;       // message without the "line N: " prefix
  bool budget_tripped = false;  // memory high-water crossed mid-shard
  int64_t lines_dropped = 0;    // unconsumed lines after the budget trip

  // Recovery bookkeeping, shard-local: quarantine byte offsets are relative
  // to the chunk start and lines are shard-local; the merge rebases both.
  IngestionReport report;

  bool ok() const { return error.empty(); }
};

/// Handles one malformed line. Strict: records the shard error and returns
/// false (the shard stops). Otherwise: counts the skip (and captures the
/// raw line under kQuarantine) and returns true (the caller drops the line
/// and keeps scanning).
bool SkipOrFail(ParseShardResult* r, RecoveryPolicy policy,
                const LineFault& fault, const char* line_begin,
                const char* line_end, std::string_view chunk) {
  if (policy == RecoveryPolicy::kStrict) {
    r->error_line = r->lines;
    r->error = fault.message;
    return false;
  }
  r->report.SkipLine(
      policy, fault.error_class, line_begin - chunk.data(), r->lines,
      std::string_view(line_begin, static_cast<size_t>(line_end - line_begin)));
  return true;
}

/// Lines remaining in [p, end): newline count plus a final unterminated line.
int64_t CountRemainingLines(const char* p, const char* end) {
  int64_t lines = 0;
  while (p < end) {
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(end - p)));
    ++lines;
    if (nl == nullptr) break;
    p = nl + 1;
  }
  return lines;
}

/// Scan-and-encode pass over one chunk of whole lines: ScanTextLine carves
/// each line in place and the names are dictionary-encoded on the fly, so
/// no Event is ever materialized.
void ParseShard(std::string_view chunk, RecoveryPolicy policy,
                const LogParseOptions& options, ParseShardResult* r) {
  PROCMINE_SPAN("log.parse_shard");
  // One event per 16 bytes over-counts every realistic log (written logs
  // run about 25 bytes a line), and reserved pages that are never written
  // cost address space, not memory. A low guess regrows the vector: a copy
  // of every event so far and, on a 30 MB log, some 19 MiB more peak RSS.
  r->events.reserve(chunk.size() / 16 + 1);
  NameIndex instance_ids(&r->instance_names);
  NameIndex activity_ids(&r->activity_names);
  // Consecutive lines usually repeat the instance (executions are written
  // contiguously) and often the activity (a START/END pair); a one-entry
  // cache skips the hash lookup for those runs.
  std::string_view last_instance, last_activity;
  int32_t last_instance_id = -1, last_activity_id = -1;
  std::string_view instance, activity;
  CompactEvent event;
  LineFault fault;
  ProbeTicker probe(options.probe_period_lines);
  const char* p = chunk.data();
  const char* const end = p + chunk.size();
  while (p < end) {
    // The ingestion memory probe: amortized (an RSS read is a /proc round
    // trip), non-sticky (a spill can free memory and parsing resumes being
    // legal on a later run). On a trip the shard stops consuming input; RSS
    // is process-global, so every sibling shard trips within one period.
    if (options.budget != nullptr && probe.Due() &&
        options.budget->OverMemoryHighWater(options.memory_high_water)) {
      r->budget_tripped = true;
      r->lines_dropped = CountRemainingLines(p, end);
      if (policy != RecoveryPolicy::kStrict) {
        r->report.lines_skipped += r->lines_dropped;
        r->report.AddErrorClass("budget_truncated", r->lines_dropped);
      }
      break;
    }
    const char* nl = static_cast<const char*>(
        memchr(p, '\n', static_cast<size_t>(end - p)));
    const char* const line_end = nl != nullptr ? nl : end;
    const char* const line_begin = p;
    p = nl != nullptr ? nl + 1 : end;
    ++r->lines;
    switch (ScanTextLine(line_begin, line_end, &instance, &activity, &event,
                         &r->outputs, &fault)) {
      case LineKind::kNoEvent:
        continue;
      case LineKind::kMalformed:
        if (SkipOrFail(r, policy, fault, line_begin, line_end, chunk)) {
          continue;
        }
        return;
      case LineKind::kEvent:
        break;
    }
    if (instance == last_instance) {
      event.instance = last_instance_id;
    } else {
      event.instance = instance_ids.Intern(instance);
      last_instance = instance;
      last_instance_id = event.instance;
    }
    if (activity == last_activity) {
      event.activity = last_activity_id;
    } else {
      event.activity = activity_ids.Intern(activity);
      last_activity = activity;
      last_activity_id = event.activity;
    }
    r->events.push_back(event);
  }
  r->report.lines_total = r->lines + r->lines_dropped;
  r->report.events_parsed = static_cast<int64_t>(r->events.size());
}

/// Cuts `data` into `num_shards` ranges aligned on line starts. Boundary
/// rule: the byte at offset i*size/num_shards belongs to the shard that owns
/// the start of its line, so every line lands in exactly one shard and the
/// cut points are a pure function of (size, num_shards) — independent of
/// thread scheduling.
std::vector<std::string_view> SplitChunksAtLines(std::string_view data,
                                                 size_t num_shards) {
  std::vector<size_t> starts;
  starts.reserve(num_shards + 1);
  starts.push_back(0);
  for (size_t i = 1; i < num_shards; ++i) {
    size_t raw = data.size() / num_shards * i;
    if (raw == 0) {
      starts.push_back(0);
      continue;
    }
    size_t nl = data.find('\n', raw - 1);
    starts.push_back(nl == std::string_view::npos ? data.size() : nl + 1);
  }
  starts.push_back(data.size());
  std::vector<std::string_view> chunks;
  chunks.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    chunks.push_back(data.substr(starts[i], starts[i + 1] - starts[i]));
  }
  return chunks;
}

}  // namespace

Result<EventLog> LogReader::ParseText(std::string_view text,
                                      const LogParseOptions& options) {
  int threads = ResolveThreadCount(options.num_threads);
  // Under min_shard_bytes per extra shard the merge overhead outweighs the
  // parallelism; the cut points stay deterministic because they depend only
  // on the input size and the options, never on the schedule.
  size_t per_shard = std::max<size_t>(1, options.min_shard_bytes);
  size_t num_shards = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(threads),
                          text.size() / per_shard + 1));
  std::vector<ParseShardResult> shards(num_shards);
  std::vector<std::string_view> chunks = SplitChunksAtLines(text, num_shards);
  if (num_shards == 1) {
    ParseShard(chunks[0], options.recovery, options, &shards[0]);
  } else {
    ThreadPool pool(threads);
    pool.ParallelFor(num_shards, [&](size_t, size_t begin, size_t end) {
      for (size_t s = begin; s < end; ++s) {
        ParseShard(chunks[s], options.recovery, options, &shards[s]);
      }
    });
  }

  // An ingestion budget trip outranks per-line errors: under kStrict the
  // parse cannot finish inside the budget at all, so point at the
  // out-of-core path; in recovery modes the unparsed tail was dropped and
  // the cut is recorded as a degradation.
  bool budget_tripped = false;
  int64_t budget_lines_dropped = 0;
  for (const ParseShardResult& shard : shards) {
    budget_tripped = budget_tripped || shard.budget_tripped;
    budget_lines_dropped += shard.lines_dropped;
  }
  if (budget_tripped) {
    if (options.recovery == RecoveryPolicy::kStrict) {
      return Status::FailedPrecondition(StrFormat(
          "memory budget high-water mark crossed while parsing (%lld lines "
          "unread); mine from a segment store (--spill-dir / synth "
          "--stream-out) or raise --max-memory-mb",
          static_cast<long long>(budget_lines_dropped)));
    }
    if (options.degradation != nullptr && !options.degradation->degraded) {
      options.degradation->degraded = true;
      options.degradation->resource = BudgetResource::kMemory;
      options.degradation->cut_phase = "log.parse";
      options.degradation->dropped = StrFormat(
          "%lld lines beyond the ingestion memory high-water mark dropped",
          static_cast<long long>(budget_lines_dropped));
    }
  }

  // First error in file order wins: shards scan disjoint ranges in file
  // order, so it is the lowest-indexed erroring shard's error, offset by the
  // (complete) line counts of the shards before it. (Recovery-mode shards
  // never set an error.)
  int64_t line_offset = 0;
  for (const ParseShardResult& shard : shards) {
    if (!shard.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %lld: %s",
                    static_cast<long long>(line_offset + shard.error_line),
                    shard.error.c_str()));
    }
    line_offset += shard.lines;
  }

  // Fold shard recovery reports in file order, rebasing each shard's
  // quarantine records from chunk-local to file-absolute coordinates. The
  // result is a pure function of the input bytes — shard count invisible.
  if (options.report != nullptr) {
    options.report->policy = options.recovery;
    int64_t lines_before = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      IngestionReport shard_report = std::move(shards[s].report);
      const int64_t chunk_base =
          chunks[s].empty() ? 0 : chunks[s].data() - text.data();
      for (QuarantineRecord& record : shard_report.quarantined) {
        record.byte_offset += chunk_base;
        record.line += lines_before;
      }
      lines_before += shards[s].lines;
      options.report->Merge(shard_report);
    }
  }

  // Deterministic merge: remap shard-local ids into global tables in shard
  // order. Global id assignment is first-appearance order over the
  // concatenated shards — a pure function of the input bytes.
  CompactEventBatch batch;
  if (num_shards == 1) {
    // The identity remap: a single shard's first-appearance order IS the
    // global order, so its tables move over untouched.
    batch.instance_names = std::move(shards[0].instance_names);
    batch.activity_names = std::move(shards[0].activity_names);
    batch.events = std::move(shards[0].events);
    batch.outputs = std::move(shards[0].outputs);
    return AssembleEventLog(batch,
                            AssemblyRecovery{options.recovery, options.report});
  }
  {
    size_t total_events = 0;
    size_t total_outputs = 0;
    for (const ParseShardResult& shard : shards) {
      total_events += shard.events.size();
      total_outputs += shard.outputs.size();
    }
    batch.events.reserve(total_events);
    batch.outputs.reserve(total_outputs);
  }
  NameIndex instance_ids(&batch.instance_names);
  NameIndex activity_ids(&batch.activity_names);
  std::vector<int32_t> instance_remap;
  std::vector<int32_t> activity_remap;
  for (const ParseShardResult& shard : shards) {
    instance_remap.clear();
    activity_remap.clear();
    for (std::string_view name : shard.instance_names) {
      instance_remap.push_back(instance_ids.Intern(name));
    }
    for (std::string_view name : shard.activity_names) {
      activity_remap.push_back(activity_ids.Intern(name));
    }
    const uint32_t output_base = static_cast<uint32_t>(batch.outputs.size());
    batch.outputs.insert(batch.outputs.end(), shard.outputs.begin(),
                         shard.outputs.end());
    for (CompactEvent event : shard.events) {
      event.instance = instance_remap[static_cast<size_t>(event.instance)];
      event.activity = activity_remap[static_cast<size_t>(event.activity)];
      event.output_begin += output_base;
      batch.events.push_back(event);
    }
  }
  return AssembleEventLog(batch,
                          AssemblyRecovery{options.recovery, options.report});
}

Result<EventLog> LogReader::ReadFile(const std::string& path,
                                     const LogParseOptions& options) {
  PROCMINE_SPAN("log.read_mmap");
  PROCMINE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  static obs::Counter* bytes =
      obs::MetricsRegistry::Get().GetCounter("log.bytes_read");
  bytes->Add(static_cast<int64_t>(file.size()));
  Result<EventLog> log = ParseText(file.data(), options);
  if (log.ok()) {
    static obs::Counter* read =
        obs::MetricsRegistry::Get().GetCounter("log.executions_read");
    read->Add(static_cast<int64_t>(log->num_executions()));
    PROCMINE_LOG(Debug) << "read " << log->num_executions()
                        << " executions over " << log->num_activities()
                        << " activities from " << path
                        << (file.is_mapped() ? " (mmap)" : " (buffered)");
  }
  return log;
}

}  // namespace procmine
