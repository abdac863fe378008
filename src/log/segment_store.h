// Spillable columnar execution store: EventLog-shaped data at out-of-core
// scale.
//
// A store is a directory of immutable segment files plus a MANIFEST.pms
// index. Each segment packs a run of executions into block-columnar form
// (per-block columns: names, instance counts, activity ids as varints,
// zigzag delta-encoded start times, zigzag durations, sparse outputs) with
// a fixed-size footer carrying the payload byte range and a crc32c. Blocks
// are independently decodable, so a torn tail costs the torn block, not the
// segment — salvage reuses the binary-log recovery taxonomy
// (truncated_body / checksum_mismatch / semantic_error).
//
// Writing: SegmentedLogWriter accumulates executions (remapping activity
// ids into the store's own dictionary), seals a segment when it reaches
// the target event count — or earlier, when the RunBudget memory probe
// crosses its high-water mark, which is what turns "out of memory" into
// "spill and keep going". Segment files and the manifest are written with
// WriteFileAtomic, so a crash leaves either a complete store or a clearly
// incomplete one (no manifest), never a torn artifact.
//
// Reading: SegmentStore maps the manifest, exposes the global activity
// dictionary, and decodes segments on demand into per-segment EventLogs
// (each carrying a copy of the full dictionary, so num_activities() and
// every activity id match the in-memory log). A bounded LRU cache keeps
// the hot segments resident; everything else lives on disk until touched.
// The miners iterate these windows and accumulate — models come out
// byte-identical to the in-memory path (see mine/ooc_miner.h).
//
// Window allocation: the execution vector is reserved once from the block
// headers' declared counts and handed to the window's EventLog whole; each
// execution gets one instance vector, reserved to its declared length; an
// instance owns output storage only when its block declares an output
// entry for it. Block columns are scratch, freed after each block.

#ifndef PROCMINE_LOG_SEGMENT_STORE_H_
#define PROCMINE_LOG_SEGMENT_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "log/event_log.h"
#include "log/recovery.h"
#include "util/budget.h"
#include "util/result.h"

namespace procmine {

/// The manifest file that marks a directory as a segment store.
inline constexpr std::string_view kSegmentManifestName = "MANIFEST.pms";

/// True when `path` is a directory containing a MANIFEST.pms.
bool IsSegmentStoreDir(const std::string& path);

/// Knobs shared by the writer and the reader.
struct SegmentStoreOptions {
  /// Raw events (two per activity instance) per segment before it is
  /// sealed and spilled to disk.
  int64_t target_segment_events = 1 << 20;

  /// Executions per column block inside a segment: the unit of independent
  /// decode, and therefore the unit of loss under salvage.
  int64_t block_executions = 1024;

  /// Reader: decoded bytes kept resident before LRU eviction kicks in.
  /// At least one segment always stays resident.
  int64_t max_resident_bytes = 256ll << 20;

  /// Writer: when set, an amortized RSS probe against this budget's
  /// high-water mark seals the open segment early (spill instead of
  /// degrade). Not owned.
  RunBudget* budget = nullptr;

  /// Fraction of max_memory_bytes at which the writer spills.
  double memory_high_water = 0.8;

  /// Reader: what to do with torn or corrupt segments. kStrict fails the
  /// load; kSkip/kQuarantine salvage the clean-block prefix and account
  /// the loss in an IngestionReport.
  RecoveryPolicy recovery = RecoveryPolicy::kStrict;
};

/// One sealed segment, as indexed by the manifest.
struct SegmentInfo {
  std::string file;        ///< filename relative to the store directory
  int64_t executions = 0;
  int64_t events = 0;      ///< raw events: 2 x activity instances
  int64_t disk_bytes = 0;
  uint32_t crc32c = 0;     ///< payload checksum, as stored in the footer
};

/// Resource picture of a store (segment count, on-disk vs resident bytes,
/// cache traffic, compression) for `procmine stats` and the post-mine
/// footprint line.
struct SegmentStoreFootprint {
  int64_t segments = 0;
  int64_t executions = 0;
  int64_t events = 0;
  int64_t disk_bytes = 0;
  int64_t resident_segments = 0;
  int64_t resident_bytes = 0;       ///< decoded bytes currently cached
  int64_t peak_resident_bytes = 0;
  int64_t max_resident_bytes = 0;   ///< the configured cache bound
  int64_t loads = 0;                ///< segment decodes (cache misses)
  int64_t cache_hits = 0;           ///< Segment() calls served resident
  int64_t evictions = 0;
  int64_t estimated_memory_bytes = 0;  ///< decoded size of the whole store

  /// Decoded-size : on-disk-size ratio (0 when empty).
  double CompressionRatio() const {
    return disk_bytes > 0
               ? static_cast<double>(estimated_memory_bytes) /
                     static_cast<double>(disk_bytes)
               : 0.0;
  }
};

namespace segment_internal {

/// Encodes `execs` (ids already in the store dictionary) into one segment's
/// bytes: magic, column blocks of `block_executions`, footer.
std::string EncodeSegment(const std::vector<Execution>& execs,
                          int64_t block_executions);

/// Strict decode: verifies the footer byte range and crc32c, then every
/// block. Activity ids must be < `num_activities`; instance intervals must
/// be well-formed. DataLoss on any violation.
Result<std::vector<Execution>> DecodeSegment(std::string_view bytes,
                                             ActivityId num_activities);

/// Best-effort decode for torn or corrupt segments: returns the
/// clean-block prefix and accounts the loss. The execution-level drop is
/// the caller's to compute (declared counts live in the manifest's
/// SegmentInfo, not in the segment bytes).
struct SalvageResult {
  std::vector<Execution> executions;
  bool clean = true;           ///< whole segment decoded and checksummed
  std::string error_class;     ///< first failure: truncated_body /
                               ///< checksum_mismatch / semantic_error
  int64_t dropped_bytes = 0;   ///< bytes at and after the first failure
};
SalvageResult SalvageSegment(std::string_view bytes,
                             ActivityId num_activities);

/// Footer-only integrity probe: verifies magic, the footer's payload byte
/// range, and the crc32c over the payload — without decoding any block.
/// `procmine stats --verify-crc` uses this to report damage cheaply.
Status VerifySegmentChecksum(std::string_view bytes);

}  // namespace segment_internal

/// Streams executions into a segment-store directory under a memory bound.
/// Single-threaded; move-only.
class SegmentedLogWriter {
 public:
  /// Creates (or reuses) `dir` and starts an empty store. Fails if a
  /// manifest is already present (stores are immutable once finished).
  static Result<SegmentedLogWriter> Create(const std::string& dir,
                                           const SegmentStoreOptions& options =
                                               SegmentStoreOptions());

  SegmentedLogWriter(SegmentedLogWriter&&) = default;
  SegmentedLogWriter& operator=(SegmentedLogWriter&&) = default;

  /// Appends one execution, interning its activity names from `dict` into
  /// the store's own dictionary. Seals the open segment when it reaches
  /// target_segment_events, or early when the budget's RSS probe crosses
  /// the high-water mark.
  Status Append(const Execution& exec, const ActivityDictionary& dict);

  /// Appends every execution of `log` in order.
  Status AppendLog(const EventLog& log);

  /// Seals and writes the open segment (no-op when it is empty).
  Status Seal();

  /// Seals the tail and writes the manifest. The store is readable only
  /// after Finish() returns OK. No appends afterwards.
  Status Finish();

  const ActivityDictionary& dictionary() const { return dict_; }
  int64_t executions() const { return total_executions_; }
  /// Raw events appended so far (2 x instances).
  int64_t events() const { return total_events_; }
  int64_t segments_sealed() const {
    return static_cast<int64_t>(segments_.size());
  }
  int64_t disk_bytes() const { return disk_bytes_; }
  /// Seals forced by the memory high-water probe (vs. the size target).
  int64_t spill_seals() const { return spill_seals_; }

 private:
  SegmentedLogWriter(std::string dir, const SegmentStoreOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  std::string dir_;
  SegmentStoreOptions options_;
  ActivityDictionary dict_;
  // Remap cache key: the source dictionary's address. Addresses can be
  // reused after a source dies, so Append re-validates cached entries
  // against the names before trusting them.
  const ActivityDictionary* last_source_ = nullptr;
  std::vector<ActivityId> remap_;
  std::vector<Execution> pending_;
  int64_t pending_events_ = 0;
  std::vector<SegmentInfo> segments_;
  int64_t total_executions_ = 0;
  int64_t total_events_ = 0;
  int64_t disk_bytes_ = 0;
  int64_t spill_seals_ = 0;
  ProbeTicker probe_{1024};
  bool finished_ = false;
};

/// Read side: manifest + on-demand segment decode behind a bounded LRU
/// cache. Call Segment(i) from one thread at a time (the windowed miners
/// fan out *within* a decoded window, not across loads).
class SegmentStore {
 public:
  static Result<SegmentStore> Open(const std::string& dir,
                                   const SegmentStoreOptions& options =
                                       SegmentStoreOptions());

  SegmentStore(SegmentStore&&) = default;
  SegmentStore& operator=(SegmentStore&&) = default;

  const ActivityDictionary& dictionary() const { return dict_; }
  const std::vector<SegmentInfo>& segments() const { return segments_; }
  size_t num_segments() const { return segments_.size(); }
  int64_t num_executions() const { return total_executions_; }
  /// Raw events in the store (2 x instances).
  int64_t num_events() const { return total_events_; }
  int64_t disk_bytes() const { return disk_bytes_; }

  /// The decoded window for segment `index`: an EventLog whose dictionary
  /// is a copy of the full store dictionary (so ids and num_activities()
  /// match the in-memory log everywhere). Served from the resident cache
  /// when possible; a miss first evicts least-recently used segments so
  /// that they and the segment it decodes (sized from the manifest) stay
  /// under max_resident_bytes. The returned log stays valid even if
  /// evicted (shared ownership). Under kSkip / kQuarantine a torn segment
  /// yields its salvaged prefix and the loss is recorded in report().
  Result<std::shared_ptr<const EventLog>> Segment(size_t index);

  /// Decodes the whole store into one in-memory EventLog (for the small
  /// paths: convert, diff, report). Honors the recovery policy.
  Result<EventLog> Materialize();

  /// Salvage/recovery accounting accumulated by Segment() loads.
  const IngestionReport& report() const { return report_; }

  SegmentStoreFootprint Footprint() const;

 private:
  SegmentStore(std::string dir, const SegmentStoreOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  struct Resident {
    std::shared_ptr<const EventLog> log;
    int64_t bytes = 0;
    std::list<size_t>::iterator lru_pos;
  };

  /// Evicts least-recently used segments until the cache holds at most
  /// `budget_bytes` or only `keep` segments.
  void EvictDownTo(int64_t budget_bytes, size_t keep);

  std::string dir_;
  SegmentStoreOptions options_;
  ActivityDictionary dict_;
  std::vector<SegmentInfo> segments_;
  int64_t total_executions_ = 0;
  int64_t total_events_ = 0;
  int64_t disk_bytes_ = 0;

  std::unordered_map<size_t, Resident> resident_;
  /// Per-segment flag: salvage/loss already counted into report_. A corrupt
  /// segment that is evicted and reloaded on a later mining pass must not
  /// be accounted twice.
  std::vector<bool> salvage_reported_;
  std::list<size_t> lru_;  ///< front = most recent
  int64_t resident_bytes_ = 0;
  int64_t peak_resident_bytes_ = 0;
  int64_t loads_ = 0;
  int64_t cache_hits_ = 0;
  int64_t evictions_ = 0;
  IngestionReport report_;
};

}  // namespace procmine

#endif  // PROCMINE_LOG_SEGMENT_STORE_H_
