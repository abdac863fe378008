#include "log/binary_log.h"

#include <algorithm>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace procmine {

namespace {
constexpr char kMagic[] = "PMLG";
constexpr uint64_t kVersion = 1;

// Smallest encodings, used to cap reserves by the bytes that remain: an
// instance is activity, start delta, duration and output count (one byte
// each at least); an execution is a name prefix and an instance count.
constexpr uint64_t kMinInstanceBytes = 4;
constexpr uint64_t kMinExecutionBytes = 2;

/// `declared`, capped at the number of `min_bytes` records `cursor` could
/// still hold, so a corrupt count cannot force a huge allocation.
size_t BoundedReserve(uint64_t declared, std::string_view cursor,
                      uint64_t min_bytes) {
  return static_cast<size_t>(std::min<uint64_t>(declared,
                                                cursor.size() / min_bytes));
}

/// Decodes one execution record at *cursor with the strict semantic checks.
/// On failure *cursor is unspecified; salvage callers snapshot it first.
Result<Execution> DecodeOneExecution(std::string_view* cursor,
                                     uint64_t activity_count) {
  PROCMINE_ASSIGN_OR_RETURN(std::string_view name, GetLengthPrefixed(cursor));
  Execution exec{std::string(name)};
  PROCMINE_ASSIGN_OR_RETURN(uint64_t instance_count, GetVarint64(cursor));
  exec.Reserve(BoundedReserve(instance_count, *cursor, kMinInstanceBytes));
  int64_t previous_start = 0;
  std::vector<int64_t> output;
  for (uint64_t i = 0; i < instance_count; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(uint64_t activity, GetVarint64(cursor));
    if (activity >= activity_count) {
      return Status::InvalidArgument(StrFormat(
          "activity id %llu out of dictionary range",
          static_cast<unsigned long long>(activity)));
    }
    PROCMINE_ASSIGN_OR_RETURN(int64_t start_delta, GetVarintSigned64(cursor));
    PROCMINE_ASSIGN_OR_RETURN(uint64_t duration, GetVarint64(cursor));
    ActivityInstance inst;
    inst.activity = static_cast<ActivityId>(activity);
    inst.start = previous_start + start_delta;
    previous_start = inst.start;
    inst.end = inst.start + static_cast<int64_t>(duration);
    if (inst.start > inst.end ||
        (!exec.empty() && exec[exec.size() - 1].start > inst.start)) {
      return Status::InvalidArgument("instances out of start order");
    }
    PROCMINE_ASSIGN_OR_RETURN(uint64_t output_count, GetVarint64(cursor));
    if (output_count > cursor->size()) {  // cheap sanity before allocating
      return Status::DataLoss("output count exceeds remaining input");
    }
    output.resize(output_count);
    for (uint64_t o = 0; o < output_count; ++o) {
      PROCMINE_ASSIGN_OR_RETURN(output[o], GetVarintSigned64(cursor));
    }
    exec.Append(inst, output);
  }
  return exec;
}

/// Best-effort decode of a file that failed the strict pass: keeps every
/// complete execution before the first undecodable byte. Returns
/// `strict_error` unchanged when even the header/dictionary is unreadable —
/// there is no salvageable prefix then.
Result<EventLog> SalvageBinaryLog(std::string_view data,
                                  const Status& strict_error,
                                  const BinaryDecodeOptions& options) {
  if (data.size() < 4 || data.substr(0, 4) != std::string_view(kMagic, 4)) {
    return strict_error;
  }
  // Greedy re-decode over everything after the magic. For a truncated file
  // the CRC footer is gone (the strict pass misreads trailing data bytes as
  // one), so no footer is split off here; whatever the executions do not
  // consume counts as dropped.
  std::string_view cursor = data.substr(4);
  auto version = GetVarint64(&cursor);
  if (!version.ok() || *version != kVersion) return strict_error;
  ActivityDictionary dict;
  auto activity_count = GetVarint64(&cursor);
  if (!activity_count.ok()) return strict_error;
  for (uint64_t i = 0; i < *activity_count; ++i) {
    auto name = GetLengthPrefixed(&cursor);
    if (!name.ok() || static_cast<uint64_t>(dict.Intern(*name)) != i) {
      return strict_error;  // unusable dictionary: ids would be meaningless
    }
  }
  auto execution_count = GetVarint64(&cursor);
  if (!execution_count.ok()) return strict_error;
  std::vector<Execution> executions;
  executions.reserve(
      BoundedReserve(*execution_count, cursor, kMinExecutionBytes));
  Status stop;  // why the greedy loop gave up (OK = decoded them all)
  for (uint64_t e = 0; e < *execution_count; ++e) {
    std::string_view mark = cursor;
    auto exec = DecodeOneExecution(&cursor, *activity_count);
    if (!exec.ok()) {
      stop = exec.status();
      cursor = mark;  // drop from the start of the bad execution
      break;
    }
    executions.push_back(std::move(*exec));
  }
  EventLog log(std::move(dict), std::move(executions));

  if (options.report != nullptr) {
    std::string_view error_class;
    if (!stop.ok()) {
      error_class = stop.code() == StatusCode::kDataLoss ? "truncated_body"
                                                         : "semantic_error";
    } else if (strict_error.message().find("checksum mismatch") !=
               std::string::npos) {
      error_class = "checksum_mismatch";
    } else {
      error_class = "semantic_error";
    }
    options.report->salvage_attempted = true;
    options.report->salvaged_executions =
        static_cast<int64_t>(log.num_executions());
    options.report->salvage_dropped_bytes =
        static_cast<int64_t>(cursor.size());
    options.report->AddErrorClass(error_class);
    if (options.recovery == RecoveryPolicy::kQuarantine) {
      QuarantineRecord record;
      record.byte_offset = static_cast<int64_t>(data.size() - cursor.size());
      record.error_class = std::string(error_class);
      record.raw = strict_error.message();
      options.report->quarantined.push_back(std::move(record));
    }
  }
  return log;
}

}  // namespace

std::string EncodeBinaryLog(const EventLog& log) {
  std::string body;
  PutVarint64(&body, kVersion);

  PutVarint64(&body, static_cast<uint64_t>(log.num_activities()));
  for (const std::string& name : log.dictionary().names()) {
    PutLengthPrefixed(&body, name);
  }

  PutVarint64(&body, log.num_executions());
  for (const Execution& exec : log.executions()) {
    PutLengthPrefixed(&body, exec.name());
    PutVarint64(&body, exec.size());
    int64_t previous_start = 0;
    for (size_t i = 0; i < exec.size(); ++i) {
      const ActivityInstance& inst = exec[i];
      PutVarint64(&body, static_cast<uint64_t>(inst.activity));
      PutVarintSigned64(&body, inst.start - previous_start);
      previous_start = inst.start;
      PutVarint64(&body, static_cast<uint64_t>(inst.end - inst.start));
      const std::span<const int64_t> output = exec.output(i);
      PutVarint64(&body, output.size());
      for (int64_t value : output) PutVarintSigned64(&body, value);
    }
  }

  std::string out(kMagic, 4);
  out += body;
  PutFixed32(&out, Crc32c(body));
  return out;
}

Result<EventLog> DecodeBinaryLog(std::string_view data) {
  if (data.size() < 8 || data.substr(0, 4) != std::string_view(kMagic, 4)) {
    return Status::DataLoss("not a procmine binary log (bad magic)");
  }
  std::string_view body = data.substr(4, data.size() - 8);
  std::string_view footer = data.substr(data.size() - 4);
  PROCMINE_ASSIGN_OR_RETURN(uint32_t stored_crc, GetFixed32(&footer));
  uint32_t actual_crc = Crc32c(body);
  if (stored_crc != actual_crc) {
    return Status::DataLoss(
        StrFormat("checksum mismatch: stored %08x, computed %08x",
                  stored_crc, actual_crc));
  }

  std::string_view cursor = body;
  PROCMINE_ASSIGN_OR_RETURN(uint64_t version, GetVarint64(&cursor));
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported binary log version %llu",
                  static_cast<unsigned long long>(version)));
  }

  ActivityDictionary dict;
  PROCMINE_ASSIGN_OR_RETURN(uint64_t activity_count, GetVarint64(&cursor));
  for (uint64_t i = 0; i < activity_count; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(std::string_view name,
                              GetLengthPrefixed(&cursor));
    ActivityId id = dict.Intern(name);
    if (static_cast<uint64_t>(id) != i) {
      return Status::InvalidArgument("duplicate activity name in dictionary");
    }
  }

  PROCMINE_ASSIGN_OR_RETURN(uint64_t execution_count, GetVarint64(&cursor));
  std::vector<Execution> executions;
  executions.reserve(
      BoundedReserve(execution_count, cursor, kMinExecutionBytes));
  for (uint64_t e = 0; e < execution_count; ++e) {
    PROCMINE_ASSIGN_OR_RETURN(Execution exec,
                              DecodeOneExecution(&cursor, activity_count));
    executions.push_back(std::move(exec));
  }
  if (!cursor.empty()) {
    return Status::DataLoss(StrFormat(
        "%zu trailing bytes after the last execution", cursor.size()));
  }
  return EventLog(std::move(dict), std::move(executions));
}

Result<EventLog> DecodeBinaryLog(std::string_view data,
                                 const BinaryDecodeOptions& options) {
  Result<EventLog> strict = DecodeBinaryLog(data);
  if (strict.ok() || options.recovery == RecoveryPolicy::kStrict) {
    return strict;
  }
  return SalvageBinaryLog(data, strict.status(), options);
}

Status WriteBinaryLogFile(const EventLog& log, const std::string& path) {
  if (auto fp = PROCMINE_FAILPOINT("binary_log.write"); fp) {
    return fp.ToStatus("binary_log.write");
  }
  return WriteFileAtomic(path, EncodeBinaryLog(log));
}

Result<EventLog> ReadBinaryLogFile(const std::string& path) {
  return ReadBinaryLogFile(path, BinaryDecodeOptions{});
}

Result<EventLog> ReadBinaryLogFile(const std::string& path,
                                   const BinaryDecodeOptions& options) {
  PROCMINE_SPAN("log.read_binary");
  // Decode straight out of the mapping: the varint cursor walks the page
  // cache and only the dictionary strings and outputs are copied.
  PROCMINE_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  static obs::Counter* bytes =
      obs::MetricsRegistry::Get().GetCounter("log.bytes_read");
  bytes->Add(static_cast<int64_t>(file.size()));
  Result<EventLog> log = DecodeBinaryLog(file.data(), options);
  if (log.ok()) {
    static obs::Counter* read =
        obs::MetricsRegistry::Get().GetCounter("log.executions_read");
    read->Add(static_cast<int64_t>(log->num_executions()));
  }
  return log;
}

}  // namespace procmine
