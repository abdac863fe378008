#include "log/segment_store.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/json.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace procmine {

namespace {

// Segment file layout:
//   "PMS1"                                  magic, 4 bytes
//   varint block_count                      --+
//   block_count x length-prefixed blocks      | payload (checksummed)
//                                           --+
//   fixed32 payload_size  fixed32 crc32c    footer, 8 bytes
constexpr char kSegmentMagic[4] = {'P', 'M', 'S', '1'};
constexpr size_t kFooterBytes = 8;
constexpr int kManifestSchemaVersion = 1;

// Decoded-size model for the resident cache and compression accounting:
// what one instance / one execution costs once expanded into an EventLog.
// It errs high: an execution is also charged 48 bytes of heap beyond its
// inline object, enough for the allocator's header and rounding on its
// instance array plus a name too long for the inline string buffer.
constexpr int64_t kDecodedBytesPerInstance =
    static_cast<int64_t>(sizeof(ActivityInstance));
constexpr int64_t kDecodedBytesPerExecution =
    static_cast<int64_t>(sizeof(Execution)) + 48;

/// The model's bytes for `instances` instances in `executions` executions,
/// saturating at INT64_MAX and treating negative counts as 0: manifest
/// counts carry no checksum.
int64_t DecodedBytes(int64_t instances, int64_t executions) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  instances = std::max<int64_t>(instances, 0);
  executions = std::max<int64_t>(executions, 0);
  if (instances > kMax / kDecodedBytesPerInstance ||
      executions > kMax / kDecodedBytesPerExecution) {
    return kMax;
  }
  const int64_t instance_bytes = instances * kDecodedBytesPerInstance;
  const int64_t execution_bytes = executions * kDecodedBytesPerExecution;
  return instance_bytes > kMax - execution_bytes
             ? kMax
             : instance_bytes + execution_bytes;
}

Status MakeDirs(const std::string& dir) {
  if (dir.empty()) return Status::InvalidArgument("empty store directory");
  std::string partial;
  size_t pos = 0;
  while (pos <= dir.size()) {
    size_t slash = dir.find('/', pos);
    if (slash == std::string::npos) slash = dir.size();
    partial.assign(dir, 0, slash);
    pos = slash + 1;
    if (partial.empty()) continue;  // leading '/'
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError(StrFormat("mkdir %s: %s", partial.c_str(),
                                       std::strerror(errno)));
    }
  }
  struct stat st;
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Status::IOError(
        StrFormat("store path %s is not a directory", dir.c_str()));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

std::string ManifestPath(const std::string& dir) {
  return dir + "/" + std::string(kSegmentManifestName);
}

void EncodeBlock(const std::vector<Execution>& execs, size_t begin, size_t end,
                 std::string* out) {
  std::string b;
  uint64_t instances = 0;
  for (size_t i = begin; i < end; ++i) instances += execs[i].size();
  PutVarint64(&b, end - begin);
  PutVarint64(&b, instances);
  for (size_t i = begin; i < end; ++i) PutLengthPrefixed(&b, execs[i].name());
  for (size_t i = begin; i < end; ++i) PutVarint64(&b, execs[i].size());
  for (size_t i = begin; i < end; ++i) {
    for (const auto& inst : execs[i].instances()) {
      PutVarint64(&b, static_cast<uint64_t>(inst.activity));
    }
  }
  // Start times: one delta chain across the whole block (baseline 0), so
  // consecutive executions that jump back in time cost a small negative
  // zigzag delta instead of a 10-byte absolute.
  int64_t prev = 0;
  for (size_t i = begin; i < end; ++i) {
    for (const auto& inst : execs[i].instances()) {
      PutVarintSigned64(&b, inst.start - prev);
      prev = inst.start;
    }
  }
  for (size_t i = begin; i < end; ++i) {
    for (const auto& inst : execs[i].instances()) {
      PutVarintSigned64(&b, inst.end - inst.start);
    }
  }
  // Outputs are sparse: (ordinal-delta, count, values) per instance that
  // has any, where ordinals index instances within the block.
  uint64_t entries = 0;
  for (size_t i = begin; i < end; ++i) entries += execs[i].outputs().size();
  PutVarint64(&b, entries);
  uint64_t first_ord = 0;  // block ordinal of execs[i]'s first instance
  uint64_t prev_ord = 0;
  bool first = true;
  for (size_t i = begin; i < end; ++i) {
    for (const InstanceOutput& o : execs[i].outputs()) {
      const uint64_t ord = first_ord + o.instance;
      PutVarint64(&b, first ? ord : ord - prev_ord);
      first = false;
      prev_ord = ord;
      PutVarint64(&b, o.values.size());
      for (int64_t v : o.values) PutVarintSigned64(&b, v);
    }
    first_ord += execs[i].size();
  }
  PutLengthPrefixed(out, b);
}

Status DecodeBlockInto(std::string_view block, ActivityId num_activities,
                       std::vector<Execution>* out) {
  std::string_view c = block;
  PROCMINE_ASSIGN_OR_RETURN(uint64_t num_execs, GetVarint64(&c));
  PROCMINE_ASSIGN_OR_RETURN(uint64_t num_instances, GetVarint64(&c));
  // Every execution costs >= 2 bytes (name prefix + len) and every instance
  // >= 3 bytes (activity + start + duration), so declared counts beyond the
  // block size are corrupt, not just truncated.
  if (num_execs > block.size() || num_instances > block.size()) {
    return Status::DataLoss("block declares more entries than bytes");
  }
  std::vector<std::string_view> names(num_execs);
  for (uint64_t i = 0; i < num_execs; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(names[i], GetLengthPrefixed(&c));
  }
  std::vector<uint64_t> lens(num_execs);
  uint64_t len_sum = 0;
  for (uint64_t i = 0; i < num_execs; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(lens[i], GetVarint64(&c));
    // Bound every per-execution count by the declared total before summing:
    // arbitrary varints could otherwise wrap len_sum around to a value that
    // passes the aggregate check below while individual lens[i] send the
    // assembly loop out of the num_instances-sized columns.
    if (lens[i] > num_instances) {
      return Status::DataLoss(
          StrFormat("execution instance count %llu exceeds block total %llu",
                    static_cast<unsigned long long>(lens[i]),
                    static_cast<unsigned long long>(num_instances)));
    }
    len_sum += lens[i];
  }
  if (len_sum != num_instances) {
    return Status::DataLoss(
        StrFormat("block instance counts disagree: lens sum %lld, declared "
                  "%lld",
                  static_cast<long long>(len_sum),
                  static_cast<long long>(num_instances)));
  }
  std::vector<ActivityId> activities(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(uint64_t id, GetVarint64(&c));
    if (id >= static_cast<uint64_t>(num_activities)) {
      return Status::DataLoss(
          StrFormat("activity id %llu out of range (dictionary has %d)",
                    static_cast<unsigned long long>(id), num_activities));
    }
    activities[i] = static_cast<ActivityId>(id);
  }
  std::vector<int64_t> starts(num_instances);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_instances; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(int64_t delta, GetVarintSigned64(&c));
    // Summed mod 2^64: a valid chain never wraps, and a hostile delta must
    // not be signed-overflow UB.
    prev += static_cast<uint64_t>(delta);
    starts[i] = static_cast<int64_t>(prev);
  }
  std::vector<int64_t> durations(num_instances);
  for (uint64_t i = 0; i < num_instances; ++i) {
    PROCMINE_ASSIGN_OR_RETURN(durations[i], GetVarintSigned64(&c));
    if (durations[i] < 0) {
      return Status::DataLoss("negative duration in block");
    }
    // start + duration must fit: a wrapped end would trip Append's CHECK.
    if (starts[i] > std::numeric_limits<int64_t>::max() - durations[i]) {
      return Status::DataLoss("instance end overflows in block");
    }
  }
  PROCMINE_ASSIGN_OR_RETURN(uint64_t entries, GetVarint64(&c));
  if (entries > num_instances) {
    return Status::DataLoss("more output entries than instances");
  }
  // Outputs are sparse, so only the declared entries get storage: (block
  // ordinal, values) in increasing ordinal order.
  std::vector<std::pair<uint64_t, std::vector<int64_t>>> outputs(entries);
  uint64_t ord = 0;
  for (uint64_t e = 0; e < entries; ++e) {
    PROCMINE_ASSIGN_OR_RETURN(uint64_t delta, GetVarint64(&c));
    if (e > 0 && delta == 0) {
      return Status::DataLoss("output ordinals not increasing");
    }
    // Compared before adding, so a huge delta cannot wrap the ordinal back
    // into range (and out of increasing order).
    const uint64_t base = e == 0 ? 0 : ord;
    if (delta >= num_instances - base) {
      return Status::DataLoss("output ordinal out of range");
    }
    ord = base + delta;
    PROCMINE_ASSIGN_OR_RETURN(uint64_t nvals, GetVarint64(&c));
    if (nvals > c.size()) {
      return Status::DataLoss("output values overflow block");
    }
    outputs[e].first = ord;
    std::vector<int64_t>& values = outputs[e].second;
    values.resize(nvals);
    for (uint64_t v = 0; v < nvals; ++v) {
      PROCMINE_ASSIGN_OR_RETURN(values[v], GetVarintSigned64(&c));
    }
  }
  if (!c.empty()) return Status::DataLoss("trailing bytes in block");

  size_t at = 0;
  size_t next_output = 0;
  for (uint64_t i = 0; i < num_execs; ++i) {
    Execution exec{std::string(names[i])};
    exec.Reserve(lens[i]);
    int64_t prev_start = 0;
    for (uint64_t j = 0; j < lens[i]; ++j, ++at) {
      // Execution::Append CHECKs start-time order; a corrupt block must
      // surface as DataLoss, not a process abort.
      if (j > 0 && starts[at] < prev_start) {
        return Status::DataLoss("instance starts out of order in block");
      }
      prev_start = starts[at];
      std::span<const int64_t> output;
      if (next_output < outputs.size() && outputs[next_output].first == at) {
        output = outputs[next_output++].second;
      }
      exec.Append(ActivityInstance{activities[at], starts[at],
                                   starts[at] + durations[at]},
                  output);
    }
    out->push_back(std::move(exec));
  }
  return Status::OK();
}

/// The fixed32 payload size and crc32c that end a segment file at least
/// kFooterBytes long.
struct SegmentFooter {
  uint32_t payload_size;
  uint32_t crc;
};

SegmentFooter ReadFooter(std::string_view bytes) {
  std::string_view footer = bytes.substr(bytes.size() - kFooterBytes);
  SegmentFooter out;
  out.payload_size = GetFixed32(&footer).ValueOrDie();
  out.crc = GetFixed32(&footer).ValueOrDie();
  return out;
}

/// The executions that the first `num_blocks` block headers in `blocks`
/// declare, each capped at its block's byte length (an execution takes at
/// least two bytes), so the sum never exceeds the segment's size. Stops at
/// the first unreadable header; the decode proper reports it.
uint64_t DeclaredExecutions(std::string_view blocks, uint64_t num_blocks) {
  uint64_t declared = 0;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    Result<std::string_view> block = GetLengthPrefixed(&blocks);
    if (!block.ok()) break;
    std::string_view header = *block;
    Result<uint64_t> num_execs = GetVarint64(&header);
    if (!num_execs.ok()) break;
    declared += std::min<uint64_t>(*num_execs, block->size());
  }
  return declared;
}

bool HasSegmentMagic(std::string_view bytes) {
  return bytes.size() >= 4 &&
         std::memcmp(bytes.data(), kSegmentMagic, 4) == 0;
}

}  // namespace

namespace segment_internal {

std::string EncodeSegment(const std::vector<Execution>& execs,
                          int64_t block_executions) {
  if (block_executions <= 0) block_executions = 1;
  std::string out;
  out.append(kSegmentMagic, 4);
  const size_t block = static_cast<size_t>(block_executions);
  const size_t num_blocks = execs.empty() ? 0 : (execs.size() + block - 1) / block;
  PutVarint64(&out, num_blocks);
  for (size_t begin = 0; begin < execs.size(); begin += block) {
    EncodeBlock(execs, begin, std::min(execs.size(), begin + block), &out);
  }
  const std::string_view payload =
      std::string_view(out).substr(4, out.size() - 4);
  const uint32_t crc = Crc32c(payload);
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  PutFixed32(&out, crc);
  return out;
}

Status VerifySegmentChecksum(std::string_view bytes) {
  if (bytes.size() < 4 + kFooterBytes) {
    return Status::DataLoss("segment too short for magic and footer");
  }
  if (!HasSegmentMagic(bytes)) {
    return Status::DataLoss("bad segment magic");
  }
  const SegmentFooter footer = ReadFooter(bytes);
  if (static_cast<uint64_t>(footer.payload_size) + 4 + kFooterBytes !=
      bytes.size()) {
    return Status::DataLoss(
        StrFormat("segment size mismatch: footer says %u payload bytes, file "
                  "has %zu",
                  footer.payload_size, bytes.size() - 4 - kFooterBytes));
  }
  const uint32_t actual = Crc32c(bytes.substr(4, footer.payload_size));
  if (actual != footer.crc) {
    return Status::DataLoss(
        StrFormat("segment checksum mismatch: stored %08x, computed %08x",
                  footer.crc, actual));
  }
  return Status::OK();
}

Result<std::vector<Execution>> DecodeSegment(std::string_view bytes,
                                             ActivityId num_activities) {
  PROCMINE_RETURN_NOT_OK(VerifySegmentChecksum(bytes));
  std::string_view c = bytes.substr(4, bytes.size() - 4 - kFooterBytes);
  PROCMINE_ASSIGN_OR_RETURN(uint64_t num_blocks, GetVarint64(&c));
  std::vector<Execution> execs;
  execs.reserve(DeclaredExecutions(c, num_blocks));
  for (uint64_t b = 0; b < num_blocks; ++b) {
    PROCMINE_ASSIGN_OR_RETURN(std::string_view block, GetLengthPrefixed(&c));
    PROCMINE_RETURN_NOT_OK(DecodeBlockInto(block, num_activities, &execs));
  }
  if (!c.empty()) return Status::DataLoss("trailing bytes after blocks");
  return execs;
}

SalvageResult SalvageSegment(std::string_view bytes,
                             ActivityId num_activities) {
  SalvageResult result;
  if (!HasSegmentMagic(bytes)) {
    result.clean = false;
    result.error_class =
        bytes.size() < 4 ? "truncated_body" : "semantic_error";
    result.dropped_bytes = static_cast<int64_t>(bytes.size());
    return result;
  }
  // Classify first: a file whose footer byte-range checks out but whose
  // checksum disagrees is corrupt-in-place (checksum_mismatch); anything
  // structurally short is a torn write (truncated_body).
  bool size_complete = false;
  bool crc_ok = false;
  if (bytes.size() >= 4 + kFooterBytes) {
    const SegmentFooter footer = ReadFooter(bytes);
    if (static_cast<uint64_t>(footer.payload_size) + 4 + kFooterBytes ==
        bytes.size()) {
      size_complete = true;
      crc_ok = Crc32c(bytes.substr(4, footer.payload_size)) == footer.crc;
    }
  }
  const std::string_view body =
      size_complete ? bytes.substr(4, bytes.size() - 4 - kFooterBytes)
                    : bytes.substr(4);
  std::string_view c = body;
  auto fail = [&](std::string_view fallback_class) {
    result.clean = false;
    if (result.error_class.empty()) {
      if (size_complete && !crc_ok) {
        result.error_class = "checksum_mismatch";
      } else if (!size_complete) {
        result.error_class = "truncated_body";
      } else {
        result.error_class = std::string(fallback_class);
      }
    }
    result.dropped_bytes =
        static_cast<int64_t>(bytes.size()) -
        static_cast<int64_t>(body.size() - c.size()) - 4;
  };
  Result<uint64_t> num_blocks = GetVarint64(&c);
  if (!num_blocks.ok()) {
    fail("semantic_error");
    return result;
  }
  for (uint64_t b = 0; b < *num_blocks; ++b) {
    std::string_view checkpoint = c;
    Result<std::string_view> block = GetLengthPrefixed(&c);
    if (!block.ok()) {
      c = checkpoint;
      fail("truncated_body");
      return result;
    }
    std::vector<Execution> decoded;
    Status st = DecodeBlockInto(*block, num_activities, &decoded);
    if (!st.ok()) {
      c = checkpoint;
      fail("semantic_error");
      return result;
    }
    for (auto& exec : decoded) result.executions.push_back(std::move(exec));
  }
  if (!c.empty() || !size_complete || !crc_ok) {
    // All declared blocks decoded, but the envelope is still bad (extra
    // bytes, torn footer, or a checksum that flags corruption the block
    // decode happened not to trip over).
    fail(c.empty() ? "checksum_mismatch" : "semantic_error");
  }
  return result;
}

}  // namespace segment_internal

bool IsSegmentStoreDir(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return FileExists(ManifestPath(path));
}

// ---------------------------------------------------------------------------
// Writer

Result<SegmentedLogWriter> SegmentedLogWriter::Create(
    const std::string& dir, const SegmentStoreOptions& options) {
  PROCMINE_RETURN_NOT_OK(MakeDirs(dir));
  if (FileExists(ManifestPath(dir))) {
    return Status::AlreadyExists(
        StrFormat("%s already holds a finished segment store", dir.c_str()));
  }
  if (options.target_segment_events < 2) {
    return Status::InvalidArgument("target_segment_events must be >= 2");
  }
  return SegmentedLogWriter(dir, options);
}

Status SegmentedLogWriter::Append(const Execution& exec,
                                  const ActivityDictionary& dict) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish on segment store");
  }
  if (&dict != last_source_) {
    remap_.clear();
    last_source_ = &dict;
  }
  // Source dictionaries only grow, so cached ids keep their mapping; new
  // slots start unmapped. Names are interned on FIRST USE, not per source
  // id: the store dictionary comes out in first-encounter order over the
  // event stream — the same order the text reader would intern the same
  // executions — so spilled and materialized logs agree on activity ids.
  if (remap_.size() < static_cast<size_t>(dict.size())) {
    remap_.resize(static_cast<size_t>(dict.size()), -1);
  }
  Execution copy = exec;
  for (size_t i = 0; i < exec.size(); ++i) {
    const ActivityInstance& inst = exec[i];
    ActivityId& mapped = remap_[static_cast<size_t>(inst.activity)];
    if (mapped >= 0 && dict.Name(inst.activity) != dict_.Name(mapped)) {
      // The remap cache is keyed on the source dictionary's address, which
      // an allocator can hand to a different dictionary after the first one
      // dies. A cached id whose names no longer agree proves that happened:
      // drop the whole cache and re-resolve by name.
      std::fill(remap_.begin(), remap_.end(), static_cast<ActivityId>(-1));
    }
    if (mapped < 0) mapped = dict_.Intern(dict.Name(inst.activity));
    copy.Relabel(i, mapped);
  }
  pending_events_ += 2 * static_cast<int64_t>(exec.size());
  total_events_ += 2 * static_cast<int64_t>(exec.size());
  ++total_executions_;
  pending_.push_back(std::move(copy));
  if (pending_events_ >= options_.target_segment_events) return Seal();
  if (options_.budget != nullptr && probe_.Due() &&
      options_.budget->OverMemoryHighWater(options_.memory_high_water)) {
    static obs::Counter* spills =
        obs::MetricsRegistry::Get().GetCounter("segment.spill_seals");
    spills->Increment();
    ++spill_seals_;
    return Seal();
  }
  return Status::OK();
}

Status SegmentedLogWriter::AppendLog(const EventLog& log) {
  for (const Execution& exec : log.executions()) {
    PROCMINE_RETURN_NOT_OK(Append(exec, log.dictionary()));
  }
  return Status::OK();
}

Status SegmentedLogWriter::Seal() {
  if (pending_.empty()) return Status::OK();
  PROCMINE_SPAN("segment.seal");
  std::string bytes =
      segment_internal::EncodeSegment(pending_, options_.block_executions);
  // The footer stores the payload size as fixed32; beyond 4 GiB it would
  // silently truncate and the segment could never be decoded (or worse,
  // would salvage partially). Refuse to write such a store.
  if (bytes.size() - 4 - kFooterBytes >
      static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument(
        StrFormat("segment payload %zu bytes exceeds the 4 GiB format limit; "
                  "lower target_segment_events",
                  bytes.size() - 4 - kFooterBytes));
  }
  SegmentInfo info;
  info.file = StrFormat("seg-%06d.seg", static_cast<int>(segments_.size()));
  info.executions = static_cast<int64_t>(pending_.size());
  info.events = pending_events_;
  info.disk_bytes = static_cast<int64_t>(bytes.size());
  info.crc32c = ReadFooter(bytes).crc;
  PROCMINE_RETURN_NOT_OK(WriteFileAtomic(dir_ + "/" + info.file, bytes));
  static obs::Counter* sealed =
      obs::MetricsRegistry::Get().GetCounter("segment.sealed");
  static obs::Counter* written =
      obs::MetricsRegistry::Get().GetCounter("segment.bytes_written");
  sealed->Increment();
  written->Add(info.disk_bytes);
  disk_bytes_ += info.disk_bytes;
  segments_.push_back(std::move(info));
  pending_.clear();
  pending_.shrink_to_fit();
  pending_events_ = 0;
  return Status::OK();
}

Status SegmentedLogWriter::Finish() {
  if (finished_) return Status::OK();
  PROCMINE_RETURN_NOT_OK(Seal());
  std::string m;
  m += "{\n";
  m += "  \"format\": \"procmine-segment-store\",\n";
  m += StrFormat("  \"schema_version\": %d,\n", kManifestSchemaVersion);
  m += StrFormat("  \"executions\": %lld,\n",
                 static_cast<long long>(total_executions_));
  m += StrFormat("  \"events\": %lld,\n", static_cast<long long>(total_events_));
  m += StrFormat("  \"disk_bytes\": %lld,\n",
                 static_cast<long long>(disk_bytes_));
  m += "  \"activities\": [";
  for (ActivityId id = 0; id < dict_.size(); ++id) {
    if (id > 0) m += ", ";
    m += '"';
    AppendJsonEscaped(&m, dict_.Name(id));
    m += '"';
  }
  m += "],\n";
  m += "  \"segments\": [";
  for (size_t i = 0; i < segments_.size(); ++i) {
    const SegmentInfo& s = segments_[i];
    m += (i == 0) ? "\n" : ",\n";
    m += "    {\"file\": \"";
    AppendJsonEscaped(&m, s.file);
    m += StrFormat("\", \"executions\": %lld, \"events\": %lld, \"bytes\": "
                   "%lld, \"crc32c\": %llu}",
                   static_cast<long long>(s.executions),
                   static_cast<long long>(s.events),
                   static_cast<long long>(s.disk_bytes),
                   static_cast<unsigned long long>(s.crc32c));
  }
  m += segments_.empty() ? "]\n" : "\n  ]\n";
  m += "}\n";
  PROCMINE_RETURN_NOT_OK(WriteFileAtomic(ManifestPath(dir_), m));
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader

Result<SegmentStore> SegmentStore::Open(const std::string& dir,
                                        const SegmentStoreOptions& options) {
  PROCMINE_ASSIGN_OR_RETURN(MappedFile manifest,
                            MappedFile::Open(ManifestPath(dir)));
  PROCMINE_ASSIGN_OR_RETURN(json::Value root, json::Parse(manifest.data()));
  PROCMINE_ASSIGN_OR_RETURN(std::string format, root.GetString("format"));
  if (format != "procmine-segment-store") {
    return Status::DataLoss(
        StrFormat("%s: not a segment-store manifest", dir.c_str()));
  }
  PROCMINE_ASSIGN_OR_RETURN(int64_t version, root.GetInt("schema_version"));
  if (version != kManifestSchemaVersion) {
    return Status::DataLoss(StrFormat(
        "%s: unsupported manifest schema_version %lld", dir.c_str(),
        static_cast<long long>(version)));
  }
  SegmentStore store(dir, options);
  store.report_.policy = options.recovery;
  const json::Value* activities = root.Find("activities");
  if (activities == nullptr || !activities->is_array()) {
    return Status::DataLoss("manifest missing activities array");
  }
  for (const json::Value& name : activities->items()) {
    if (!name.is_string()) {
      return Status::DataLoss("manifest activity name is not a string");
    }
    store.dict_.Intern(name.AsString());
  }
  const json::Value* segments = root.Find("segments");
  if (segments == nullptr || !segments->is_array()) {
    return Status::DataLoss("manifest missing segments array");
  }
  for (const json::Value& seg : segments->items()) {
    SegmentInfo info;
    PROCMINE_ASSIGN_OR_RETURN(info.file, seg.GetString("file"));
    PROCMINE_ASSIGN_OR_RETURN(info.executions, seg.GetInt("executions"));
    PROCMINE_ASSIGN_OR_RETURN(info.events, seg.GetInt("events"));
    PROCMINE_ASSIGN_OR_RETURN(info.disk_bytes, seg.GetInt("bytes"));
    PROCMINE_ASSIGN_OR_RETURN(int64_t crc, seg.GetInt("crc32c"));
    info.crc32c = static_cast<uint32_t>(crc);
    if (info.file.find('/') != std::string::npos || info.file.empty()) {
      return Status::DataLoss(
          StrFormat("manifest segment file %s escapes the store directory",
                    info.file.c_str()));
    }
    store.total_executions_ += info.executions;
    store.total_events_ += info.events;
    store.disk_bytes_ += info.disk_bytes;
    store.segments_.push_back(std::move(info));
  }
  store.salvage_reported_.assign(store.segments_.size(), false);
  return store;
}

Result<std::shared_ptr<const EventLog>> SegmentStore::Segment(size_t index) {
  if (index >= segments_.size()) {
    return Status::InvalidArgument(
        StrFormat("segment index %zu out of range (%zu segments)", index,
                  segments_.size()));
  }
  // Registered before the branch, so a mine with no cache hit still exports
  // the counter (at 0).
  static obs::Counter* hits =
      obs::MetricsRegistry::Get().GetCounter("segment.cache_hits");
  auto it = resident_.find(index);
  if (it != resident_.end()) {
    lru_.erase(it->second.lru_pos);
    lru_.push_front(index);
    it->second.lru_pos = lru_.begin();
    ++cache_hits_;
    hits->Increment();
    return it->second.log;
  }

  PROCMINE_SPAN("segment.load");
  // Decode latency is only worth a clock read when someone is collecting it.
  const bool timed = obs::MetricsEnabled();
  StopWatch decode_watch;
  const SegmentInfo& info = segments_[index];
  // Make room first, so the cache and the segment being decoded stay under
  // the bound together. The manifest's counts estimate the segment; one
  // that alone exceeds the bound still stays resident once decoded.
  const int64_t estimate = DecodedBytes(info.events / 2, info.executions);
  EvictDownTo(options_.max_resident_bytes -
                  std::min(options_.max_resident_bytes, estimate),
              0);
  const std::string path = dir_ + "/" + info.file;
  std::vector<Execution> execs;
  Result<MappedFile> file = MappedFile::Open(path);
  if (!file.ok()) {
    if (options_.recovery == RecoveryPolicy::kStrict) {
      return file.status();
    }
    // Missing/unreadable segment file: the whole segment is lost. Count it
    // into the report only on the first load — a reload after eviction must
    // not inflate the accounting.
    if (!salvage_reported_[index]) {
      salvage_reported_[index] = true;
      report_.salvage_attempted = true;
      report_.executions_dropped += info.executions;
      report_.salvage_dropped_bytes += info.disk_bytes;
      report_.AddErrorClass("truncated_body");
      static obs::Counter* events =
          obs::MetricsRegistry::Get().GetCounter("segment.salvage_events");
      static obs::Counter* lost =
          obs::MetricsRegistry::Get().GetCounter("segment.lost_executions");
      events->Increment();
      lost->Add(info.executions);
      if (options_.recovery == RecoveryPolicy::kQuarantine) {
        report_.quarantined.push_back(QuarantineRecord{
            -1, 0, "truncated_body",
            StrFormat("segment %s: %s", info.file.c_str(),
                      file.status().message().c_str())});
      }
    }
  } else {
    Result<std::vector<Execution>> decoded =
        segment_internal::DecodeSegment(file->data(), dict_.size());
    if (decoded.ok()) {
      execs = decoded.MoveValueOrDie();
    } else if (options_.recovery == RecoveryPolicy::kStrict) {
      return Status::DataLoss(StrFormat("segment %s: %s", info.file.c_str(),
                                        decoded.status().message().c_str()));
    } else {
      segment_internal::SalvageResult salvage =
          segment_internal::SalvageSegment(file->data(), dict_.size());
      execs = std::move(salvage.executions);
      // A corrupt segment stays corrupt across reloads; account its loss
      // only the first time so repeated mining passes (and LRU eviction in
      // between) don't multiply the report.
      if (!salvage_reported_[index]) {
        salvage_reported_[index] = true;
        report_.salvage_attempted = true;
        report_.salvaged_executions += static_cast<int64_t>(execs.size());
        report_.executions_dropped +=
            std::max<int64_t>(0, info.executions -
                                     static_cast<int64_t>(execs.size()));
        report_.salvage_dropped_bytes += salvage.dropped_bytes;
        static obs::Counter* events =
            obs::MetricsRegistry::Get().GetCounter("segment.salvage_events");
        static obs::Counter* salvaged = obs::MetricsRegistry::Get().GetCounter(
            "segment.salvaged_executions");
        static obs::Counter* lost =
            obs::MetricsRegistry::Get().GetCounter("segment.lost_executions");
        events->Increment();
        salvaged->Add(static_cast<int64_t>(execs.size()));
        lost->Add(std::max<int64_t>(
            0, info.executions - static_cast<int64_t>(execs.size())));
        report_.AddErrorClass(salvage.error_class.empty()
                                  ? "semantic_error"
                                  : salvage.error_class);
        if (options_.recovery == RecoveryPolicy::kQuarantine) {
          report_.quarantined.push_back(QuarantineRecord{
              -1, 0,
              salvage.error_class.empty() ? "semantic_error"
                                          : salvage.error_class,
              StrFormat("segment %s: salvaged %zu of %lld executions",
                        info.file.c_str(), execs.size(),
                        static_cast<long long>(info.executions))});
        }
      }
    }
  }

  int64_t instances = 0;
  for (const Execution& exec : execs) {
    instances += static_cast<int64_t>(exec.size());
  }
  const int64_t bytes =
      DecodedBytes(instances, static_cast<int64_t>(execs.size()));
  auto log = std::make_shared<EventLog>(dict_, std::move(execs));

  ++loads_;
  lru_.push_front(index);
  std::shared_ptr<const EventLog> shared = std::move(log);
  resident_[index] = Resident{shared, bytes, lru_.begin()};
  resident_bytes_ += bytes;
  peak_resident_bytes_ = std::max(peak_resident_bytes_, resident_bytes_);
  EvictDownTo(options_.max_resident_bytes, 1);

  static obs::Counter* loads =
      obs::MetricsRegistry::Get().GetCounter("segment.loads");
  static obs::Gauge* resident =
      obs::MetricsRegistry::Get().GetGauge("segment.resident_bytes");
  loads->Increment();
  resident->Set(resident_bytes_);
  if (timed) {
    // Microsecond buckets spanning "resident-size segment from page cache"
    // to "multi-hundred-MB segment from cold disk".
    static obs::Histogram* decode_us = obs::MetricsRegistry::Get().GetHistogram(
        "segment.decode_us", {50, 100, 250, 500, 1000, 2500, 5000, 10000,
                              25000, 50000, 100000, 250000, 1000000});
    decode_us->Record(decode_watch.ElapsedNanos() / 1000);
  }
  return shared;
}

void SegmentStore::EvictDownTo(int64_t budget_bytes, size_t keep) {
  static obs::Counter* evictions =
      obs::MetricsRegistry::Get().GetCounter("segment.evictions");
  while (resident_bytes_ > budget_bytes && lru_.size() > keep) {
    size_t victim = lru_.back();
    lru_.pop_back();
    auto it = resident_.find(victim);
    resident_bytes_ -= it->second.bytes;
    resident_.erase(it);
    ++evictions_;
    evictions->Increment();
  }
}

Result<EventLog> SegmentStore::Materialize() {
  // The manifest's count sizes the log once. It is only a hint, so it is
  // capped by the segment files' real sizes (an execution takes at least
  // two bytes on disk) and a hostile manifest cannot force a huge reserve.
  int64_t file_bytes = 0;
  for (const SegmentInfo& info : segments_) {
    struct stat st;
    const std::string path = dir_ + "/" + info.file;
    if (::stat(path.c_str(), &st) == 0) file_bytes += st.st_size;
  }
  std::vector<Execution> execs;
  execs.reserve(static_cast<size_t>(
      std::clamp<int64_t>(total_executions_, 0, file_bytes / 2)));
  for (size_t i = 0; i < segments_.size(); ++i) {
    PROCMINE_ASSIGN_OR_RETURN(std::shared_ptr<const EventLog> window,
                              Segment(i));
    execs.insert(execs.end(), window->executions().begin(),
                 window->executions().end());
  }
  return EventLog(dict_, std::move(execs));
}

SegmentStoreFootprint SegmentStore::Footprint() const {
  SegmentStoreFootprint fp;
  fp.segments = static_cast<int64_t>(segments_.size());
  fp.executions = total_executions_;
  fp.events = total_events_;
  fp.disk_bytes = disk_bytes_;
  fp.resident_segments = static_cast<int64_t>(resident_.size());
  fp.resident_bytes = resident_bytes_;
  fp.peak_resident_bytes = peak_resident_bytes_;
  fp.max_resident_bytes = options_.max_resident_bytes;
  fp.loads = loads_;
  fp.cache_hits = cache_hits_;
  fp.evictions = evictions_;
  fp.estimated_memory_bytes =
      DecodedBytes(total_events_ / 2, total_executions_);
  return fp;
}

}  // namespace procmine
