// Segment store: round-trip fidelity (including the awkward encodings —
// zero-length executions, negative and non-monotonic timestamp deltas,
// dictionary growth across segments), torn/truncated salvage under the
// recovery taxonomy, budget-driven spill seals, the LRU resident cache,
// and byte-identity of the out-of-core miner against the in-memory path
// across segment sizes and thread counts.

#include "log/segment_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "log/event_log.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "mine/cyclic_miner.h"
#include "mine/ooc_miner.h"
#include "output_of.h"
#include "reduce_every_execution.h"
#include "synth/log_generator.h"
#include "synth/random_dag.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "util/strings.h"

namespace procmine {
namespace {

void ExpectLogsEqual(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.num_executions(), b.num_executions());
  ASSERT_EQ(a.num_activities(), b.num_activities());
  EXPECT_EQ(a.dictionary().names(), b.dictionary().names());
  for (size_t i = 0; i < a.num_executions(); ++i) {
    const Execution& x = a.execution(i);
    const Execution& y = b.execution(i);
    EXPECT_EQ(x.name(), y.name()) << "execution " << i;
    ASSERT_EQ(x.size(), y.size()) << "execution " << i;
    for (size_t j = 0; j < x.size(); ++j) {
      EXPECT_EQ(x[j].activity, y[j].activity);
      EXPECT_EQ(x[j].start, y[j].start);
      EXPECT_EQ(x[j].end, y[j].end);
      EXPECT_EQ(OutputOf(x, j), OutputOf(y, j));
    }
  }
}

void ExpectModelsEqual(const ProcessGraph& a, const ProcessGraph& b,
                       const std::string& context) {
  ASSERT_EQ(a.num_activities(), b.num_activities()) << context;
  EXPECT_EQ(a.names(), b.names()) << context;
  EXPECT_EQ(a.graph().Edges(), b.graph().Edges()) << context;
}

class SegmentStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/segment_store_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cleanup = "rm -rf " + dir_;
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
  }

  /// Writes `log` into a fresh store at dir_ and returns writer stats via
  /// out-params where the test wants them.
  void WriteStore(const EventLog& log, const SegmentStoreOptions& options) {
    auto writer = SegmentedLogWriter::Create(dir_, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->AppendLog(log).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }

  std::string dir_;
};

/// A log exercising every column: outputs, intervals, negative and
/// non-monotonic timestamps, a zero-length execution, name strings.
EventLog AwkwardLog() {
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACDBE", "ACE"});
  Execution interval("interval_case");
  interval.Append({0, -5, 10}, std::vector<int64_t>{42, -7});
  interval.Append({1, 3, 20});
  interval.Append({2, 25, 25}, std::vector<int64_t>{0});
  log.AddExecution(std::move(interval));
  log.AddExecution(Execution("empty_case"));  // zero instances
  // Starts are non-decreasing within an execution (EventLog invariant),
  // but the encoder still sees hostile deltas: the clock jumps far forward
  // here and then far backward at the next execution boundary.
  Execution forward("forward_case");
  forward.Append({3, 1000000, 1000001});
  log.AddExecution(std::move(forward));
  Execution backward("backward_case");
  backward.Append({1, -999, -998}, std::vector<int64_t>{5});
  backward.Append({0, 0, 0});
  log.AddExecution(std::move(backward));
  return log;
}

TEST_F(SegmentStoreTest, RoundTripAwkwardLog) {
  EventLog log = AwkwardLog();
  WriteStore(log, SegmentStoreOptions());
  auto store = SegmentStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->num_executions(), 7);
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ExpectLogsEqual(log, *materialized);
  EXPECT_FALSE(store->report().AnyLoss());
}

TEST_F(SegmentStoreTest, RoundTripAcrossSegmentAndBlockSizes) {
  EventLog log = AwkwardLog();
  for (int64_t segment_events : {2, 6, 1 << 20}) {
    for (int64_t block_execs : {1, 2, 1024}) {
      SetUp();  // fresh dir per combination
      SegmentStoreOptions options;
      options.target_segment_events = segment_events;
      options.block_executions = block_execs;
      WriteStore(log, options);
      auto store = SegmentStore::Open(dir_, options);
      ASSERT_TRUE(store.ok());
      auto materialized = store->Materialize();
      ASSERT_TRUE(materialized.ok());
      ExpectLogsEqual(log, *materialized);
    }
  }
}

TEST_F(SegmentStoreTest, DictionaryGrowsAcrossSegments) {
  // Later executions introduce activities the first segments never saw;
  // ids must come out in first-encounter order over the event stream and
  // every window must still carry the full dictionary.
  SegmentStoreOptions options;
  options.target_segment_events = 4;  // ~1 execution per segment
  auto writer = SegmentedLogWriter::Create(dir_, options);
  ASSERT_TRUE(writer.ok());
  EventLog source = EventLog::FromCompactStrings({"AB", "ABC", "CDB", "EA"});
  for (size_t i = 0; i < source.num_executions(); ++i) {
    ASSERT_TRUE(
        writer->Append(source.execution(i), source.dictionary()).ok());
  }
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_GT(writer->segments_sealed(), 1);

  auto store = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->dictionary().names(), source.dictionary().names());
  for (size_t i = 0; i < store->num_segments(); ++i) {
    auto window = store->Segment(i);
    ASSERT_TRUE(window.ok());
    EXPECT_EQ((*window)->num_activities(), source.num_activities())
        << "window " << i << " lacks the full dictionary";
  }
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok());
  ExpectLogsEqual(source, *materialized);
}

TEST_F(SegmentStoreTest, RoundTripFuzz) {
  // Random logs with hostile shapes: empty executions, repeated
  // activities, negative/non-monotonic timestamps, sparse outputs, and a
  // dictionary that keeps growing. Every (segment size, block size) must
  // reproduce the source exactly.
  Rng rng(77);
  for (int round = 0; round < 8; ++round) {
    EventLog log;
    const int execs = 1 + static_cast<int>(rng.Uniform(40));
    for (int e = 0; e < execs; ++e) {
      Execution exec(StrFormat("case_%d_%d", round, e));
      const int n = static_cast<int>(rng.Uniform(6));  // 0..5 instances
      int64_t t = static_cast<int64_t>(rng.Uniform(2000)) - 1000;
      for (int k = 0; k < n; ++k) {
        ActivityId a = log.dictionary().Intern(StrFormat(
            "act_%d",
            static_cast<int>(rng.Uniform(3 + static_cast<uint64_t>(round) *
                                         4))));
        t += static_cast<int64_t>(rng.Uniform(200));  // non-decreasing starts
        int64_t dur = static_cast<int64_t>(rng.Uniform(50));
        std::vector<int64_t> outputs;
        if (rng.Uniform(3) == 0) {
          outputs.push_back(static_cast<int64_t>(rng.Uniform(1000)) - 500);
        }
        exec.Append({a, t, t + dur}, outputs);
      }
      log.AddExecution(std::move(exec));
    }
    SegmentStoreOptions options;
    options.target_segment_events = 1 + static_cast<int64_t>(rng.Uniform(32));
    options.block_executions = 1 + static_cast<int64_t>(rng.Uniform(7));
    SetUp();
    WriteStore(log, options);
    auto store = SegmentStore::Open(dir_, options);
    ASSERT_TRUE(store.ok());
    auto materialized = store->Materialize();
    ASSERT_TRUE(materialized.ok());
    ExpectLogsEqual(log, *materialized);
  }
}

// ---------------------------------------------------------------------------
// Encode/decode + salvage taxonomy

std::vector<Execution> SampleExecs() {
  std::vector<Execution> execs;
  for (int e = 0; e < 10; ++e) {
    Execution exec(StrFormat("case_%d", e));
    for (int k = 0; k <= e % 3; ++k) {
      exec.Append({static_cast<ActivityId>(k), 10 * k, 10 * k + 5});
    }
    execs.push_back(std::move(exec));
  }
  return execs;
}

TEST(SegmentCodecTest, DetectsEveryByteCorruption) {
  std::string bytes = segment_internal::EncodeSegment(SampleExecs(), 4);
  Rng rng(5);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(
        corrupted[i] ^ static_cast<char>(1 + rng.Uniform(255)));
    auto decoded = segment_internal::DecodeSegment(corrupted, 3);
    EXPECT_FALSE(decoded.ok()) << "corruption at byte " << i
                               << " went undetected";
  }
}

TEST(SegmentCodecTest, SalvageTruncationKeepsCleanBlockPrefix) {
  // 10 executions in blocks of 2: cutting the file mid-payload loses the
  // torn block and everything after it, never the whole segment.
  std::vector<Execution> execs = SampleExecs();
  std::string bytes = segment_internal::EncodeSegment(execs, 2);
  auto torn = segment_internal::SalvageSegment(
      std::string_view(bytes).substr(0, bytes.size() / 2), 3);
  EXPECT_FALSE(torn.clean);
  EXPECT_EQ(torn.error_class, "truncated_body");
  EXPECT_GT(torn.dropped_bytes, 0);
  ASSERT_FALSE(torn.executions.empty());
  ASSERT_LT(torn.executions.size(), execs.size());
  EXPECT_EQ(torn.executions.size() % 2, 0u) << "salvage must cut at a block";
  for (size_t i = 0; i < torn.executions.size(); ++i) {
    EXPECT_EQ(torn.executions[i].name(), execs[i].name());
  }
}

TEST(SegmentCodecTest, SalvageClassifiesCorruptionInPlace) {
  // Footer byte range intact but a payload byte flipped: the taxonomy
  // calls that checksum_mismatch even when the blocks still parse.
  std::string bytes = segment_internal::EncodeSegment(SampleExecs(), 1024);
  std::string corrupted = bytes;
  corrupted[bytes.size() / 2] ^= 0x20;
  auto salvage = segment_internal::SalvageSegment(corrupted, 3);
  EXPECT_FALSE(salvage.clean);
  EXPECT_TRUE(salvage.error_class == "checksum_mismatch" ||
              salvage.error_class == "semantic_error")
      << salvage.error_class;
}

TEST(SegmentCodecTest, SalvageClassifiesSemanticError) {
  // Structurally valid segment whose ids exceed the dictionary: decoding
  // with a too-small num_activities is a semantic error, not a torn write.
  std::string bytes = segment_internal::EncodeSegment(SampleExecs(), 1024);
  auto salvage = segment_internal::SalvageSegment(bytes, /*num_activities=*/1);
  EXPECT_FALSE(salvage.clean);
  EXPECT_EQ(salvage.error_class, "semantic_error");
  EXPECT_FALSE(segment_internal::DecodeSegment(bytes, 1).ok());
}

TEST(SegmentCodecTest, RejectsInstanceCountsThatWrapTheBlockTotal) {
  // Hand-craft a block whose per-execution instance counts sum (mod 2^64)
  // to the declared total: lens[0] = UINT64_MAX and lens[1] = 2 wrap to 1.
  // An unbounded decoder would pass the aggregate check and then walk the
  // 1-element columns UINT64_MAX steps out of bounds.
  std::string block;
  PutVarint64(&block, 2);  // num_execs
  PutVarint64(&block, 1);  // num_instances
  PutLengthPrefixed(&block, "a");
  PutLengthPrefixed(&block, "b");
  PutVarint64(&block, UINT64_MAX);  // lens[0]
  PutVarint64(&block, 2);           // lens[1]: sum wraps to 1
  PutVarint64(&block, 0);           // activities[0]
  PutVarintSigned64(&block, 0);     // start delta
  PutVarintSigned64(&block, 0);     // duration
  PutVarint64(&block, 0);           // output entries
  std::string seg("PMS1", 4);
  PutVarint64(&seg, 1);  // block count
  PutLengthPrefixed(&seg, block);
  const uint32_t payload_size = static_cast<uint32_t>(seg.size() - 4);
  const uint32_t crc = Crc32c(std::string_view(seg).substr(4));
  PutFixed32(&seg, payload_size);
  PutFixed32(&seg, crc);

  // The checksum matches the hostile payload, so both the strict decoder
  // and the non-CRC-gated salvage path see the block; both must reject it.
  auto decoded = segment_internal::DecodeSegment(seg, 3);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  auto salvage = segment_internal::SalvageSegment(seg, 3);
  EXPECT_FALSE(salvage.clean);
  EXPECT_TRUE(salvage.executions.empty());
}

// ---------------------------------------------------------------------------
// The block decoder behind a valid checksum: corruptions whose crc32c is
// recomputed reach the decoder itself, which must agree with a slow
// field-by-field reference.

/// Reads one block the plain way: every column field by field with the
/// format's rules spelled out, no reserves and no early size bounds.
/// nullopt when the block breaks a rule.
std::optional<std::vector<Execution>> ReferenceDecodeBlock(
    std::string_view c, ActivityId num_activities) {
  auto next = [&c]() -> std::optional<uint64_t> {
    Result<uint64_t> v = GetVarint64(&c);
    if (!v.ok()) return std::nullopt;
    return *v;
  };
  auto next_signed = [&c]() -> std::optional<int64_t> {
    Result<int64_t> v = GetVarintSigned64(&c);
    if (!v.ok()) return std::nullopt;
    return *v;
  };
  const std::optional<uint64_t> num_execs = next();
  if (!num_execs) return std::nullopt;
  const std::optional<uint64_t> num_instances = next();
  if (!num_instances) return std::nullopt;
  std::vector<std::string> names;
  for (uint64_t i = 0; i < *num_execs; ++i) {
    Result<std::string_view> name = GetLengthPrefixed(&c);
    if (!name.ok()) return std::nullopt;
    names.emplace_back(*name);
  }
  std::vector<uint64_t> lens;
  unsigned __int128 total = 0;
  for (uint64_t i = 0; i < *num_execs; ++i) {
    const std::optional<uint64_t> len = next();
    if (!len) return std::nullopt;
    lens.push_back(*len);
    total += *len;
  }
  if (total != *num_instances) return std::nullopt;
  std::vector<ActivityInstance> instances;
  std::vector<std::vector<int64_t>> outputs(*num_instances);
  for (uint64_t i = 0; i < *num_instances; ++i) {
    const std::optional<uint64_t> id = next();
    if (!id || *id >= static_cast<uint64_t>(num_activities)) {
      return std::nullopt;
    }
    instances.push_back({static_cast<ActivityId>(*id), 0, 0});
  }
  uint64_t start = 0;  // the delta chain wraps mod 2^64
  for (ActivityInstance& inst : instances) {
    const std::optional<int64_t> delta = next_signed();
    if (!delta) return std::nullopt;
    start += static_cast<uint64_t>(*delta);
    inst.start = static_cast<int64_t>(start);
  }
  for (ActivityInstance& inst : instances) {
    const std::optional<int64_t> duration = next_signed();
    if (!duration || *duration < 0 ||
        __builtin_add_overflow(inst.start, *duration, &inst.end)) {
      return std::nullopt;
    }
  }
  const std::optional<uint64_t> entries = next();
  if (!entries) return std::nullopt;
  uint64_t ord = 0;
  for (uint64_t e = 0; e < *entries; ++e) {
    const std::optional<uint64_t> delta = next();
    if (!delta) return std::nullopt;
    uint64_t this_ord = *delta;
    if (e > 0 && (__builtin_add_overflow(ord, *delta, &this_ord) ||
                  this_ord <= ord)) {
      return std::nullopt;  // ordinals must strictly increase
    }
    ord = this_ord;
    if (ord >= instances.size()) return std::nullopt;
    const std::optional<uint64_t> count = next();
    if (!count) return std::nullopt;
    for (uint64_t v = 0; v < *count; ++v) {
      const std::optional<int64_t> value = next_signed();
      if (!value) return std::nullopt;
      outputs[ord].push_back(*value);
    }
  }
  if (!c.empty()) return std::nullopt;
  std::vector<Execution> out;
  size_t at = 0;
  for (uint64_t i = 0; i < *num_execs; ++i) {
    Execution exec(names[i]);
    for (uint64_t j = 0; j < lens[i]; ++j, ++at) {
      if (j > 0 && instances[at].start < instances[at - 1].start) {
        return std::nullopt;
      }
      exec.Append(instances[at], outputs[at]);
    }
    out.push_back(std::move(exec));
  }
  return out;
}

/// The executions of every block before the first bad one, and whether
/// the whole payload decodes (every declared block, no trailing bytes).
struct ReferenceSegment {
  std::vector<Execution> prefix;
  bool ok = false;
};

ReferenceSegment ReferenceDecodeSegment(std::string_view payload,
                                        ActivityId num_activities) {
  ReferenceSegment out;
  Result<uint64_t> num_blocks = GetVarint64(&payload);
  if (!num_blocks.ok()) return out;
  for (uint64_t b = 0; b < *num_blocks; ++b) {
    Result<std::string_view> block = GetLengthPrefixed(&payload);
    if (!block.ok()) return out;
    std::optional<std::vector<Execution>> execs =
        ReferenceDecodeBlock(*block, num_activities);
    if (!execs) return out;
    out.prefix.insert(out.prefix.end(), execs->begin(), execs->end());
  }
  out.ok = payload.empty();
  return out;
}

/// Magic + `payload` + a footer whose size and crc32c match the payload.
std::string SealSegment(std::string_view payload) {
  std::string seg("PMS1", 4);
  seg.append(payload);
  PutFixed32(&seg, static_cast<uint32_t>(payload.size()));
  PutFixed32(&seg, Crc32c(payload));
  return seg;
}

void ExpectExecutionsEqual(const std::vector<Execution>& want,
                           const std::vector<Execution>& got) {
  ExpectLogsEqual(EventLog(ActivityDictionary(), want),
                  EventLog(ActivityDictionary(), got));
}

/// Strict decode returns DataLoss or exactly the reference's log; salvage
/// never aborts and keeps exactly the reference's clean-block prefix.
void ExpectDecodersMatchReference(const std::string& segment,
                                  ActivityId num_activities) {
  const ReferenceSegment ref = ReferenceDecodeSegment(
      std::string_view(segment).substr(4, segment.size() - 12),
      num_activities);
  auto strict = segment_internal::DecodeSegment(segment, num_activities);
  if (ref.ok) {
    ASSERT_TRUE(strict.ok()) << strict.status().ToString();
    ExpectExecutionsEqual(ref.prefix, *strict);
  } else {
    ASSERT_FALSE(strict.ok()) << "decoded a segment the reference rejects";
    EXPECT_EQ(strict.status().code(), StatusCode::kDataLoss);
  }
  auto salvage = segment_internal::SalvageSegment(segment, num_activities);
  EXPECT_EQ(salvage.clean, ref.ok);
  ExpectExecutionsEqual(ref.prefix, salvage.executions);
}

/// Nine executions in blocks of three over activities {0, 1, 2}. Block 0
/// has an output on its first instance (ordinal 0) and block 1 on its last
/// instance; block 2 has none. Multi-byte starts and outputs give the
/// corruptions varint continuations to hit.
std::vector<Execution> MixedOutputExecs() {
  std::vector<Execution> execs;
  struct Instance {
    ActivityInstance instance;
    std::vector<int64_t> output;
  };
  auto add = [&execs](std::string name, std::vector<Instance> instances) {
    Execution exec(std::move(name));
    for (const Instance& i : instances) exec.Append(i.instance, i.output);
    execs.push_back(std::move(exec));
  };
  add("a", {{{0, 0, 1}, {7}}, {{1, 2, 4}, {}}});
  add("bb", {{{2, 5, 5}, {}}});
  add("", {});
  add("c", {{{0, 100000, 100002}, {}}, {{1, 100001, 100300}, {-3, 300}}});
  add("d", {{{2, -4, 0}, {}}, {{0, 0, 1}, {}}});
  add("e", {{{1, 1, 2}, {0, 1000000}}});
  add("f", {{{0, 3, 3}, {}}, {{2, 9, 200}, {}}});
  add("g", {{{1, -70000, -69999}, {}}});
  add("h", {});
  return execs;
}

TEST(SegmentCodecTest, BlockDecoderMatchesReferenceBehindValidChecksum) {
  const std::vector<Execution> execs = MixedOutputExecs();
  const std::string bytes = segment_internal::EncodeSegment(execs, 3);
  {
    auto decoded = segment_internal::DecodeSegment(bytes, 3);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectExecutionsEqual(execs, *decoded);
    ExpectDecodersMatchReference(bytes, 3);
  }
  const std::string payload = bytes.substr(4, bytes.size() - 12);

  // Every payload byte under every single-bit flip and an all-bits flip.
  for (size_t i = 0; i < payload.size(); ++i) {
    for (int mask : {0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff}) {
      std::string flipped = payload;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      SCOPED_TRACE(StrFormat("payload byte %zu ^ 0x%02x", i, mask));
      ExpectDecodersMatchReference(SealSegment(flipped), 3);
    }
  }

  // Every block cut at every shorter length, its length prefix fixed up.
  std::string_view c = payload;
  const uint64_t num_blocks = *GetVarint64(&c);
  std::vector<std::string_view> blocks;
  for (uint64_t b = 0; b < num_blocks; ++b) {
    blocks.push_back(*GetLengthPrefixed(&c));
  }
  ASSERT_EQ(blocks.size(), 3u);
  for (size_t b = 0; b < blocks.size(); ++b) {
    for (size_t keep = 0; keep < blocks[b].size(); ++keep) {
      std::string cut;
      PutVarint64(&cut, num_blocks);
      for (size_t k = 0; k < blocks.size(); ++k) {
        PutLengthPrefixed(&cut, k == b ? blocks[k].substr(0, keep) : blocks[k]);
      }
      SCOPED_TRACE(StrFormat("block %zu cut to %zu bytes", b, keep));
      ExpectDecodersMatchReference(SealSegment(cut), 3);
    }
  }
}

/// A one-block payload around `block`.
std::string OneBlockSegment(std::string_view block) {
  std::string payload;
  PutVarint64(&payload, 1);
  PutLengthPrefixed(&payload, block);
  return SealSegment(payload);
}

TEST(SegmentCodecTest, RejectsOutputOrdinalsThatWrap) {
  // Ordinal 1, then a delta of 2^64 - 1 that wraps the ordinal to 0: back
  // in range, but not increasing.
  std::string block;
  PutVarint64(&block, 1);  // num_execs
  PutVarint64(&block, 2);  // num_instances
  PutLengthPrefixed(&block, "a");
  PutVarint64(&block, 2);  // lens[0]
  PutVarint64(&block, 0);  // activities
  PutVarint64(&block, 1);
  PutVarintSigned64(&block, 0);  // start deltas
  PutVarintSigned64(&block, 0);
  PutVarintSigned64(&block, 0);  // durations
  PutVarintSigned64(&block, 0);
  PutVarint64(&block, 2);  // output entries
  PutVarint64(&block, 1);  // ordinal 1
  PutVarint64(&block, 1);
  PutVarintSigned64(&block, 7);
  PutVarint64(&block, UINT64_MAX);  // wraps to ordinal 0
  PutVarint64(&block, 1);
  PutVarintSigned64(&block, 8);
  const std::string seg = OneBlockSegment(block);

  auto decoded = segment_internal::DecodeSegment(seg, 2);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(decoded.status().message(), "output ordinal out of range");
  ExpectDecodersMatchReference(seg, 2);
}

TEST(SegmentCodecTest, RejectsInstanceEndsThatOverflow) {
  // start = INT64_MAX and duration 1: the end does not fit in int64 and a
  // wrapped one would trip Execution::Append's CHECK.
  std::string block;
  PutVarint64(&block, 1);  // num_execs
  PutVarint64(&block, 1);  // num_instances
  PutLengthPrefixed(&block, "a");
  PutVarint64(&block, 1);  // lens[0]
  PutVarint64(&block, 0);  // activity
  PutVarintSigned64(&block, INT64_MAX);  // start delta
  PutVarintSigned64(&block, 1);          // duration
  PutVarint64(&block, 0);                // output entries
  const std::string seg = OneBlockSegment(block);

  auto decoded = segment_internal::DecodeSegment(seg, 1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  auto salvage = segment_internal::SalvageSegment(seg, 1);
  EXPECT_FALSE(salvage.clean);
  EXPECT_TRUE(salvage.executions.empty());
  ExpectDecodersMatchReference(seg, 1);
}

TEST(SegmentCodecTest, SalvageOfCleanSegmentIsLossless) {
  std::vector<Execution> execs = SampleExecs();
  std::string bytes = segment_internal::EncodeSegment(execs, 3);
  auto salvage = segment_internal::SalvageSegment(bytes, 3);
  EXPECT_TRUE(salvage.clean);
  EXPECT_TRUE(salvage.error_class.empty());
  EXPECT_EQ(salvage.executions.size(), execs.size());
  EXPECT_EQ(salvage.dropped_bytes, 0);
}

TEST_F(SegmentStoreTest, TornSegmentFileStrictVsSalvage) {
  SegmentStoreOptions options;
  options.target_segment_events = 4;
  options.block_executions = 1;
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  WriteStore(log, options);

  // Tear the second segment file in half, as a crashed writer would.
  auto probe = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(probe.ok());
  ASSERT_GE(probe->num_segments(), 2u);
  const SegmentInfo& victim = probe->segments()[1];
  const std::string path = dir_ + "/" + victim.file;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  // kStrict: loading the torn segment is DataLoss.
  auto strict = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->Segment(1).ok());
  EXPECT_EQ(strict->Segment(1).status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(strict->Segment(0).ok()) << "clean segments must still load";

  // kQuarantine: the clean-block prefix survives, the loss is accounted
  // with the recovery taxonomy, and the quarantine names the segment.
  SegmentStoreOptions salvage_options = options;
  salvage_options.recovery = RecoveryPolicy::kQuarantine;
  auto salvaged = SegmentStore::Open(dir_, salvage_options);
  ASSERT_TRUE(salvaged.ok());
  auto window = salvaged->Segment(1);
  ASSERT_TRUE(window.ok());
  EXPECT_LT((*window)->num_executions(), static_cast<size_t>(victim.executions));
  const IngestionReport& report = salvaged->report();
  EXPECT_TRUE(report.salvage_attempted);
  EXPECT_GT(report.executions_dropped, 0);
  ASSERT_EQ(report.error_classes.size(), 1u);
  EXPECT_EQ(report.error_classes[0].first, "truncated_body");
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_NE(report.quarantined[0].raw.find(victim.file), std::string::npos);

  // The other segments still materialize; only the torn block is gone.
  auto materialized = salvaged->Materialize();
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->num_executions() +
                static_cast<size_t>(report.executions_dropped),
            log.num_executions());
}

TEST_F(SegmentStoreTest, MissingSegmentFileIsWholeSegmentLoss) {
  SegmentStoreOptions options;
  options.target_segment_events = 4;
  WriteStore(EventLog::FromCompactStrings({"AB", "AB", "AB"}), options);
  auto probe = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(probe.ok());
  ASSERT_GE(probe->num_segments(), 2u);
  ASSERT_EQ(std::remove((dir_ + "/" + probe->segments()[0].file).c_str()), 0);

  auto strict = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->Segment(0).ok());

  SegmentStoreOptions skip = options;
  skip.recovery = RecoveryPolicy::kSkip;
  auto salvaged = SegmentStore::Open(dir_, skip);
  ASSERT_TRUE(salvaged.ok());
  auto window = salvaged->Segment(0);
  ASSERT_TRUE(window.ok());
  EXPECT_EQ((*window)->num_executions(), 0u);
  EXPECT_GT(salvaged->report().executions_dropped, 0);
}

TEST_F(SegmentStoreTest, ReusedDictionaryAddressDoesNotCorruptRemap) {
  // The writer caches the activity-id remap keyed on the source
  // dictionary's address. Placement-new pins two different dictionaries to
  // the same address — the allocator-reuse scenario — and the second one
  // swaps the ids of A and B. A stale cache would silently record case2's
  // instance under "A"; the writer must detect the mismatch by name.
  auto writer = SegmentedLogWriter::Create(dir_, SegmentStoreOptions());
  ASSERT_TRUE(writer.ok());
  alignas(ActivityDictionary) unsigned char buf[sizeof(ActivityDictionary)];

  auto* dict1 = new (buf) ActivityDictionary();
  ASSERT_EQ(dict1->Intern("A"), 0);
  ASSERT_EQ(dict1->Intern("B"), 1);
  Execution first("case1");
  first.Append({0, 0, 1});
  first.Append({1, 2, 3});
  ASSERT_TRUE(writer->Append(first, *dict1).ok());
  dict1->~ActivityDictionary();

  auto* dict2 = new (buf) ActivityDictionary();
  ASSERT_EQ(dict2->Intern("B"), 0);  // same address, swapped ids
  ASSERT_EQ(dict2->Intern("A"), 1);
  Execution second("case2");
  second.Append({0, 4, 5});  // id 0 now means "B"
  ASSERT_TRUE(writer->Append(second, *dict2).ok());
  dict2->~ActivityDictionary();
  ASSERT_TRUE(writer->Finish().ok());

  auto store = SegmentStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok());
  ASSERT_EQ(materialized->num_executions(), 2u);
  const Execution& out = materialized->execution(1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(materialized->dictionary().Name(out[0].activity), "B");
}

TEST_F(SegmentStoreTest, SalvageAccountedOncePerSegmentAcrossReloads) {
  // The OOC miner makes multiple passes over every segment; a corrupt
  // segment that is evicted and reloaded must not have its loss counted
  // into the report once per pass.
  SegmentStoreOptions options;
  options.target_segment_events = 4;
  options.block_executions = 1;
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  WriteStore(log, options);
  auto probe = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(probe.ok());
  ASSERT_GE(probe->num_segments(), 2u);
  const std::string path = dir_ + "/" + probe->segments()[1].file;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  SegmentStoreOptions tight = options;
  tight.recovery = RecoveryPolicy::kQuarantine;
  tight.max_resident_bytes = 1;  // every pass reloads every segment
  auto store = SegmentStore::Open(dir_, tight);
  ASSERT_TRUE(store.ok());
  for (size_t i = 0; i < store->num_segments(); ++i) {
    ASSERT_TRUE(store->Segment(i).ok());
  }
  const int64_t dropped = store->report().executions_dropped;
  const int64_t dropped_bytes = store->report().salvage_dropped_bytes;
  const size_t quarantined = store->report().quarantined.size();
  EXPECT_GT(dropped, 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < store->num_segments(); ++i) {
      ASSERT_TRUE(store->Segment(i).ok());
    }
  }
  EXPECT_GT(store->Footprint().evictions, 0) << "reloads never happened";
  EXPECT_EQ(store->report().executions_dropped, dropped);
  EXPECT_EQ(store->report().salvage_dropped_bytes, dropped_bytes);
  EXPECT_EQ(store->report().quarantined.size(), quarantined);
}

TEST_F(SegmentStoreTest, CreateRefusesFinishedStore) {
  WriteStore(EventLog::FromCompactStrings({"AB"}), SegmentStoreOptions());
  auto again = SegmentedLogWriter::Create(dir_, SegmentStoreOptions());
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(SegmentStoreTest, OpenWithoutManifestFails) {
  ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
  EXPECT_FALSE(IsSegmentStoreDir(dir_));
  EXPECT_FALSE(SegmentStore::Open(dir_).ok());
}

// ---------------------------------------------------------------------------
// Budget spill + resident cache

TEST_F(SegmentStoreTest, MemoryHighWaterSealsEarly) {
  // A 1-byte memory budget keeps the RSS probe permanently over the
  // high-water mark: every probe tick must seal (spill) rather than let
  // the pending buffer grow, and the spilled store must still round-trip.
  RunBudget budget(RunBudget::Limits{-1, /*max_memory_bytes=*/1, -1});
  SegmentStoreOptions options;
  options.budget = &budget;
  EventLog log;
  for (int e = 0; e < 5000; ++e) {
    Execution exec(StrFormat("case_%04d", e));
    exec.Append({log.dictionary().Intern("A"), e, e + 1});
    exec.Append({log.dictionary().Intern("B"), e + 2, e + 3});
    log.AddExecution(std::move(exec));
  }
  auto writer = SegmentedLogWriter::Create(dir_, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->AppendLog(log).ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_GT(writer->spill_seals(), 0);
  EXPECT_GT(writer->segments_sealed(), 1);

  auto store = SegmentStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok());
  ExpectLogsEqual(log, *materialized);
}

TEST_F(SegmentStoreTest, LruCacheEvictsUnderResidentBound) {
  SegmentStoreOptions options;
  options.target_segment_events = 8;
  EventLog log;
  for (int e = 0; e < 64; ++e) {
    Execution exec(StrFormat("case_%02d", e));
    exec.Append({log.dictionary().Intern("A"), e, e + 1});
    exec.Append({log.dictionary().Intern("B"), e + 2, e + 3});
    log.AddExecution(std::move(exec));
  }
  WriteStore(log, options);

  SegmentStoreOptions tight = options;
  tight.max_resident_bytes = 1;  // at least one segment always stays
  auto store = SegmentStore::Open(dir_, tight);
  ASSERT_TRUE(store.ok());
  ASSERT_GT(store->num_segments(), 2u);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < store->num_segments(); ++i) {
      ASSERT_TRUE(store->Segment(i).ok());
    }
  }
  SegmentStoreFootprint fp = store->Footprint();
  EXPECT_EQ(fp.segments, static_cast<int64_t>(store->num_segments()));
  EXPECT_GT(fp.evictions, 0);
  EXPECT_EQ(fp.resident_segments, 1);
  // Every visit after the first pass was a cache miss: the bound is real.
  EXPECT_EQ(fp.loads, 2 * static_cast<int64_t>(store->num_segments()));
  EXPECT_GT(fp.estimated_memory_bytes, fp.disk_bytes);
  EXPECT_GT(fp.CompressionRatio(), 1.0);

  // A roomy cache serves the second pass residently.
  SegmentStoreOptions roomy = options;
  auto cached = SegmentStore::Open(dir_, roomy);
  ASSERT_TRUE(cached.ok());
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < cached->num_segments(); ++i) {
      ASSERT_TRUE(cached->Segment(i).ok());
    }
  }
  EXPECT_EQ(cached->Footprint().loads,
            static_cast<int64_t>(cached->num_segments()));
  EXPECT_EQ(cached->Footprint().evictions, 0);
}

TEST_F(SegmentStoreTest, DecodeStaysUnderResidentBound) {
  // Segments of uneven size: each execution has 1-6 instances.
  SegmentStoreOptions options;
  options.target_segment_events = 40;
  Rng rng(5);
  EventLog log;
  for (int e = 0; e < 120; ++e) {
    Execution exec(StrFormat("case_%03d", e));
    const int n = 1 + static_cast<int>(rng.Uniform(6));
    for (int k = 0; k < n; ++k) {
      exec.Append({log.dictionary().Intern(StrFormat("a%d", k)), 2 * k,
                   2 * k + 1});
    }
    log.AddExecution(std::move(exec));
  }
  WriteStore(log, options);

  // The model's bytes for each segment, read one segment at a time.
  int64_t largest = 0;
  {
    auto store = SegmentStore::Open(dir_, options);
    ASSERT_TRUE(store.ok());
    ASSERT_GT(store->num_segments(), 4u);
    for (size_t i = 0; i < store->num_segments(); ++i) {
      const int64_t before = store->Footprint().resident_bytes;
      ASSERT_TRUE(store->Segment(i).ok());
      largest = std::max(largest, store->Footprint().resident_bytes - before);
    }
  }
  // Every bound that one segment fits under holds over whole walks, forward
  // and backward, including while the next segment decodes.
  for (double segments : {1.0, 1.5, 2.0, 2.7, 4.2}) {
    SegmentStoreOptions bounded = options;
    bounded.max_resident_bytes = static_cast<int64_t>(
        segments * static_cast<double>(largest));
    auto store = SegmentStore::Open(dir_, bounded);
    ASSERT_TRUE(store.ok());
    const size_t n = store->num_segments();
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t k = 0; k < n; ++k) {
        ASSERT_TRUE(store->Segment(pass == 0 ? k : n - 1 - k).ok());
      }
    }
    const SegmentStoreFootprint fp = store->Footprint();
    EXPECT_LE(fp.peak_resident_bytes, bounded.max_resident_bytes)
        << segments << " segments' worth";
    EXPECT_GE(fp.resident_segments, 1);
  }
}

TEST_F(SegmentStoreTest, CacheCountersAreExactAndMirrorMetrics) {
  SegmentStoreOptions options;
  options.target_segment_events = 8;
  EventLog log;
  for (int e = 0; e < 64; ++e) {
    Execution exec(StrFormat("case_%02d", e));
    exec.Append({log.dictionary().Intern("A"), e, e + 1});
    exec.Append({log.dictionary().Intern("B"), e + 2, e + 3});
    log.AddExecution(std::move(exec));
  }
  WriteStore(log, options);

  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Get().ResetAll();

  // Roomy cache, three passes: pass one misses every segment, the rest hit.
  auto store = SegmentStore::Open(dir_, options);
  ASSERT_TRUE(store.ok());
  const int64_t n = static_cast<int64_t>(store->num_segments());
  ASSERT_GT(n, 2);
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < store->num_segments(); ++i) {
      ASSERT_TRUE(store->Segment(i).ok());
    }
  }
  SegmentStoreFootprint fp = store->Footprint();
  EXPECT_EQ(fp.loads, n);
  EXPECT_EQ(fp.cache_hits, 2 * n);
  EXPECT_EQ(fp.evictions, 0);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("segment.loads"), n);
  EXPECT_EQ(snapshot.CounterTotal("segment.cache_hits"), 2 * n);
  // The decode-latency histogram saw exactly one record per cache miss.
  bool found_decode = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "segment.decode_us") {
      found_decode = true;
      EXPECT_EQ(h.total_count, n);
    }
  }
  EXPECT_TRUE(found_decode);

  obs::MetricsRegistry::Get().ResetAll();
  obs::SetMetricsEnabled(false);
}

TEST_F(SegmentStoreTest, CacheCountersExactUnderConcurrentWindowReaders) {
  // Segment() is single-threaded per store, so concurrent window readers
  // each open their own SegmentStore over the shared directory — the
  // pattern the parallel miners use. The sharded registry must still
  // account every load and hit exactly.
  SegmentStoreOptions options;
  options.target_segment_events = 8;
  EventLog log;
  for (int e = 0; e < 64; ++e) {
    Execution exec(StrFormat("case_%02d", e));
    exec.Append({log.dictionary().Intern("A"), e, e + 1});
    exec.Append({log.dictionary().Intern("B"), e + 2, e + 3});
    log.AddExecution(std::move(exec));
  }
  WriteStore(log, options);

  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Get().ResetAll();

  constexpr int kThreads = 4;
  constexpr int kPasses = 2;
  int64_t segments = 0;
  {
    auto probe = SegmentStore::Open(dir_, options);
    ASSERT_TRUE(probe.ok());
    segments = static_cast<int64_t>(probe->num_segments());
  }
  obs::MetricsRegistry::Get().ResetAll();  // drop the probe's traffic

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([this, &options, &failures] {
      auto store = SegmentStore::Open(dir_, options);
      if (!store.ok()) {
        ++failures;
        return;
      }
      for (int pass = 0; pass < kPasses; ++pass) {
        for (size_t i = 0; i < store->num_segments(); ++i) {
          if (!store->Segment(i).ok()) ++failures;
        }
      }
      SegmentStoreFootprint fp = store->Footprint();
      if (fp.loads != static_cast<int64_t>(store->num_segments())) ++failures;
      if (fp.cache_hits !=
          static_cast<int64_t>((kPasses - 1) * store->num_segments())) {
        ++failures;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  ASSERT_EQ(failures.load(), 0);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(snapshot.CounterTotal("segment.loads"), kThreads * segments);
  EXPECT_EQ(snapshot.CounterTotal("segment.cache_hits"),
            kThreads * (kPasses - 1) * segments);

  obs::MetricsRegistry::Get().ResetAll();
  obs::SetMetricsEnabled(false);
}

// ---------------------------------------------------------------------------
// Out-of-core mining identity

/// Mines the store out of core and its materialized log in memory with the
/// same options; both models must match field for field. (The materialized
/// log is the reference on purpose: the store dictionary is in first-use
/// order over the event stream, which a source log with a pre-seeded
/// dictionary need not share.)
void ExpectOocIdentity(SegmentStore* store, MinerOptions options,
                       const std::string& context) {
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok()) << context;
  const EventLog& reference_log = *materialized;
  auto reference = ProcessMiner(options).Mine(reference_log);
  ASSERT_TRUE(reference.ok()) << context << ": "
                              << reference.status().ToString();
  OocMineStats stats;
  auto ooc = OutOfCoreMiner(options).Mine(store, &stats);
  ASSERT_TRUE(ooc.ok()) << context << ": " << ooc.status().ToString();
  ExpectModelsEqual(*ooc, *reference, context);
  EXPECT_EQ(stats.executions,
            static_cast<int64_t>(reference_log.num_executions()))
      << context;
}

class OocIdentityTest : public SegmentStoreTest {};

TEST_F(OocIdentityTest, GeneralDagAcrossSegmentSizesAndThreads) {
  RandomDagOptions dag_options;
  dag_options.num_activities = 12;
  dag_options.edge_density = PaperEdgeDensity(12);
  dag_options.seed = 3;
  ProcessGraph truth = GenerateRandomDag(dag_options);
  WalkLogOptions walk;
  walk.num_executions = 300;
  walk.seed = 4;
  auto log = GenerateWalkLog(truth, walk);
  ASSERT_TRUE(log.ok());

  for (int64_t segment_events : {64, 512, 1 << 20}) {
    for (int threads : {1, 2, 8}) {
      SetUp();
      SegmentStoreOptions store_options;
      store_options.target_segment_events = segment_events;
      WriteStore(*log, store_options);
      auto store = SegmentStore::Open(dir_, store_options);
      ASSERT_TRUE(store.ok());
      MinerOptions options;
      options.num_threads = threads;
      ExpectOocIdentity(&*store, options,
                        StrFormat("general seg=%lld threads=%d",
                                  static_cast<long long>(segment_events),
                                  threads));
    }
  }
}

TEST_F(OocIdentityTest, SpecialDagIdentity) {
  // Exactly-once log: kAuto must stream-select Algorithm 1 and match.
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 8;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());
  for (int threads : {1, 2, 8}) {
    MinerOptions options;
    options.num_threads = threads;
    ExpectOocIdentity(&*store, options,
                      StrFormat("special threads=%d", threads));
  }
}

TEST_F(OocIdentityTest, CyclicIdentityAcrossSegmentSizes) {
  // Repeats force Algorithm 3: the streamed occurrence labeling and the
  // window relabeling must reproduce the in-memory labeled mine exactly.
  std::vector<std::string> cases;
  for (int i = 0; i < 30; ++i) {
    cases.push_back(i % 3 == 0 ? "ABABCE" : (i % 3 == 1 ? "ABCBCE" : "ACE"));
  }
  EventLog log = EventLog::FromCompactStrings(cases);
  for (int64_t segment_events : {8, 64, 1 << 20}) {
    for (int threads : {1, 2, 8}) {
      SetUp();
      SegmentStoreOptions store_options;
      store_options.target_segment_events = segment_events;
      WriteStore(log, store_options);
      auto store = SegmentStore::Open(dir_, store_options);
      ASSERT_TRUE(store.ok());
      MinerOptions options;
      options.num_threads = threads;
      ExpectOocIdentity(&*store, options,
                        StrFormat("cyclic seg=%lld threads=%d",
                                  static_cast<long long>(segment_events),
                                  threads));
    }
  }
}

TEST_F(OocIdentityTest, NoiseThresholdIdentity) {
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ABCE", "ABCE", "ABCE", "ACBE", "ABE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 8;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());
  MinerOptions options;
  options.noise_threshold = 3;
  ExpectOocIdentity(&*store, options, "threshold=3");
}

TEST_F(OocIdentityTest, MaxExecutionsDegradationParity) {
  // A --max-executions cut must truncate to the same prefix AND report the
  // same DegradationInfo as the in-memory facade.
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 4;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());

  RunBudget ooc_budget(RunBudget::Limits{-1, -1, /*max_executions=*/3});
  DegradationInfo ooc_degradation;
  MinerOptions ooc_options;
  ooc_options.budget = &ooc_budget;
  ooc_options.degradation = &ooc_degradation;
  OocMineStats stats;
  auto ooc = OutOfCoreMiner(ooc_options).Mine(&*store, &stats);
  ASSERT_TRUE(ooc.ok()) << ooc.status().ToString();
  EXPECT_EQ(stats.executions, 3);

  RunBudget ref_budget(RunBudget::Limits{-1, -1, /*max_executions=*/3});
  DegradationInfo ref_degradation;
  MinerOptions ref_options;
  ref_options.budget = &ref_budget;
  ref_options.degradation = &ref_degradation;
  auto reference = ProcessMiner(ref_options).Mine(log);
  ASSERT_TRUE(reference.ok());

  ExpectModelsEqual(*ooc, *reference, "max-executions parity");
  EXPECT_EQ(ooc_degradation.degraded, ref_degradation.degraded);
  EXPECT_TRUE(ooc_degradation.degraded);
  EXPECT_EQ(static_cast<int>(ooc_degradation.resource),
            static_cast<int>(ref_degradation.resource));
  EXPECT_EQ(ooc_degradation.cut_phase, ref_degradation.cut_phase);
  EXPECT_EQ(ooc_degradation.dropped, ref_degradation.dropped);
}

TEST_F(OocIdentityTest, EmptyStoreMinesLikeEmptyLog) {
  auto writer = SegmentedLogWriter::Create(dir_, SegmentStoreOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  auto store = SegmentStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  auto ooc = OutOfCoreMiner().Mine(&*store);
  ASSERT_FALSE(ooc.ok());
  auto reference = ProcessMiner().Mine(EventLog());
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(ooc.status().code(), reference.status().code());
  EXPECT_EQ(ooc.status().message(), reference.status().message());
}

TEST_F(OocIdentityTest, ValidationErrorsMatchInMemoryPath) {
  // A non-exactly-once log forced through Algorithm 1 must fail with the
  // same error text whether mined in memory or out of core.
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ABE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 4;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kSpecialDag;
  auto ooc = OutOfCoreMiner(options).Mine(&*store);
  auto reference = ProcessMiner(options).Mine(log);
  ASSERT_FALSE(ooc.ok());
  ASSERT_FALSE(reference.ok());
  EXPECT_EQ(ooc.status().code(), reference.status().code());
  EXPECT_EQ(ooc.status().message(), reference.status().message());
}

/// Index of the non-empty window holding execution `exec` (0-based).
int64_t WindowOf(const SegmentStore& store, int64_t exec) {
  int64_t window = 0;
  for (const SegmentInfo& segment : store.segments()) {
    if (segment.executions == 0) continue;
    if (exec < segment.executions) return window;
    exec -= segment.executions;
    ++window;
  }
  return -1;
}

TEST_F(OocIdentityTest, WalkCountsWithOneResidentSegment) {
  // With one segment resident every window visit decodes, so the store's
  // load count is the miner's walk count: one walk for every algorithm, and
  // for kAuto on a cyclic log the k windows scanned up to the first repeat.
  // Each model still matches in memory.
  RandomDagOptions dag_options;
  dag_options.num_activities = 10;
  dag_options.edge_density = PaperEdgeDensity(10);
  dag_options.seed = 7;
  WalkLogOptions walk;
  walk.num_executions = 60;
  walk.seed = 8;
  auto general = GenerateWalkLog(GenerateRandomDag(dag_options), walk);
  ASSERT_TRUE(general.ok());
  EventLog special = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  // The first repeat sits past segment 0, so the re-scan after the
  // detection prefix starts on a window that is no longer resident.
  std::vector<std::string> cases = {"ACE", "ABCE", "ACE", "ABCE", "ACE"};
  for (int i = 0; i < 12; ++i) cases.push_back(i % 2 ? "ABABCE" : "ACBCE");
  EventLog cyclic = EventLog::FromCompactStrings(cases);
  const int64_t first_repeat = 5;

  struct Case {
    const char* name;
    const EventLog* log;
    MinerAlgorithm algorithm;
    bool prefix;  // one full walk plus kAuto's cyclic-detection prefix
  };
  const Case kCases[] = {
      {"auto general", &*general, MinerAlgorithm::kAuto, false},
      {"explicit general", &*general, MinerAlgorithm::kGeneralDag, false},
      {"auto special", &special, MinerAlgorithm::kAuto, false},
      {"explicit special", &special, MinerAlgorithm::kSpecialDag, false},
      {"auto cyclic", &cyclic, MinerAlgorithm::kAuto, true},
      {"explicit cyclic", &cyclic, MinerAlgorithm::kCyclic, false},
  };
  for (const Case& c : kCases) {
    SetUp();
    SegmentStoreOptions store_options;
    store_options.target_segment_events = 16;
    WriteStore(*c.log, store_options);
    store_options.max_resident_bytes = 1;
    auto store = SegmentStore::Open(dir_, store_options);
    ASSERT_TRUE(store.ok());
    const int64_t segments = static_cast<int64_t>(store->num_segments());
    ASSERT_GE(segments, 3) << c.name;
    const int64_t k = c.prefix ? WindowOf(*store, first_repeat) + 1 : 0;
    if (c.prefix) {
      ASSERT_GE(k, 2) << c.name;
    }

    MinerOptions options;
    options.algorithm = c.algorithm;
    OocMineStats stats;
    auto ooc = OutOfCoreMiner(options).Mine(&*store, &stats);
    ASSERT_TRUE(ooc.ok()) << c.name << ": " << ooc.status().ToString();
    const int64_t expected = k + segments;
    EXPECT_EQ(store->Footprint().loads, expected) << c.name;
    EXPECT_EQ(stats.windows, expected) << c.name;

    auto materialized = store->Materialize();
    ASSERT_TRUE(materialized.ok()) << c.name;
    auto reference = ProcessMiner(options).Mine(*materialized);
    ASSERT_TRUE(reference.ok()) << c.name;
    ExpectModelsEqual(*ooc, *reference, c.name);
  }
}

TEST_F(OocIdentityTest, ExpiredDeadlineDegradationParity) {
  // A zero deadline trips the first BudgetCut probed. The scan collects
  // before the collect cut is probed, so the cut must still throw the counts
  // away and report the in-memory model and DegradationInfo exactly.
  EventLog general = EventLog::FromCompactStrings(
      {"ABCE", "ACE", "ABCE", "ABE", "ACBE", "ABCE"});
  EventLog special = EventLog::FromCompactStrings(
      {"ABCE", "ACBE", "ABCE", "ACBE", "ABCE", "ACBE"});
  EventLog cyclic = EventLog::FromCompactStrings(
      {"ACE", "ABCE", "ABABCE", "ACBCE", "ABABCE", "ACE"});
  struct Case {
    const char* name;
    const EventLog* log;
    MinerAlgorithm algorithm;
  };
  const Case kCases[] = {
      {"auto general", &general, MinerAlgorithm::kAuto},
      {"explicit general", &general, MinerAlgorithm::kGeneralDag},
      {"auto special", &special, MinerAlgorithm::kAuto},
      {"explicit special", &special, MinerAlgorithm::kSpecialDag},
      {"auto cyclic", &cyclic, MinerAlgorithm::kAuto},
      {"explicit cyclic", &cyclic, MinerAlgorithm::kCyclic},
  };
  for (const Case& c : kCases) {
    SetUp();
    SegmentStoreOptions store_options;
    store_options.target_segment_events = 8;
    WriteStore(*c.log, store_options);
    auto store = SegmentStore::Open(dir_, store_options);
    ASSERT_TRUE(store.ok());

    RunBudget::Limits limits;
    limits.deadline_ms = 0;
    RunBudget ooc_budget(limits);
    ooc_budget.Start();
    DegradationInfo ooc_degradation;
    MinerOptions ooc_options;
    ooc_options.algorithm = c.algorithm;
    ooc_options.budget = &ooc_budget;
    ooc_options.degradation = &ooc_degradation;
    auto ooc = OutOfCoreMiner(ooc_options).Mine(&*store);
    ASSERT_TRUE(ooc.ok()) << c.name << ": " << ooc.status().ToString();

    RunBudget ref_budget(limits);
    ref_budget.Start();
    DegradationInfo ref_degradation;
    MinerOptions ref_options = ooc_options;
    ref_options.budget = &ref_budget;
    ref_options.degradation = &ref_degradation;
    auto reference = ProcessMiner(ref_options).Mine(*c.log);
    ASSERT_TRUE(reference.ok()) << c.name;

    ExpectModelsEqual(*ooc, *reference, c.name);
    EXPECT_EQ(ooc->graph().num_edges(), 0) << c.name;
    EXPECT_TRUE(ooc_degradation.degraded) << c.name;
    EXPECT_EQ(ooc_degradation.resource, BudgetResource::kDeadline) << c.name;
    EXPECT_EQ(ooc_degradation.resource, ref_degradation.resource) << c.name;
    EXPECT_EQ(ooc_degradation.cut_phase, ref_degradation.cut_phase)
        << c.name;
    EXPECT_EQ(ooc_degradation.dropped, ref_degradation.dropped) << c.name;
  }
}

TEST_F(OocIdentityTest, ExpiredBudgetSkipsCollectionButNotChecks) {
  // The scan probes the budget before collecting each window. Once it has
  // run out, the remaining windows are still checked but none is collected,
  // so an expired deadline collects nothing at all; the model and the
  // DegradationInfo still equal the in-memory run's.
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACE", "ABCE", "ABE", "ACBE", "ABCE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 8;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());
  const int64_t segments = static_cast<int64_t>(store->num_segments());
  ASSERT_GE(segments, 3);
  obs::SetMetricsEnabled(true);
  for (MinerAlgorithm algorithm :
       {MinerAlgorithm::kAuto, MinerAlgorithm::kGeneralDag}) {
    const std::string name =
        algorithm == MinerAlgorithm::kAuto ? "auto" : "general";
    RunBudget::Limits limits;
    limits.deadline_ms = 0;
    RunBudget ooc_budget(limits);
    ooc_budget.Start();
    DegradationInfo ooc_degradation;
    MinerOptions ooc_options;
    ooc_options.algorithm = algorithm;
    ooc_options.budget = &ooc_budget;
    ooc_options.degradation = &ooc_degradation;
    obs::MetricsRegistry::Get().ResetAll();
    OocMineStats stats;
    auto ooc = OutOfCoreMiner(ooc_options).Mine(&*store, &stats);
    ASSERT_TRUE(ooc.ok()) << name << ": " << ooc.status().ToString();
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
    EXPECT_EQ(snapshot.CounterTotal("mine.executions_scanned"), 0) << name;
    EXPECT_EQ(stats.windows, segments) << name;  // every window checked

    RunBudget ref_budget(limits);
    ref_budget.Start();
    DegradationInfo ref_degradation;
    MinerOptions ref_options = ooc_options;
    ref_options.budget = &ref_budget;
    ref_options.degradation = &ref_degradation;
    auto reference = ProcessMiner(ref_options).Mine(log);
    ASSERT_TRUE(reference.ok()) << name;
    ExpectModelsEqual(*ooc, *reference, name);
    EXPECT_TRUE(ooc_degradation.degraded) << name;
    EXPECT_EQ(ooc_degradation.resource, ref_degradation.resource) << name;
    EXPECT_EQ(ooc_degradation.cut_phase, ref_degradation.cut_phase) << name;
    EXPECT_EQ(ooc_degradation.dropped, ref_degradation.dropped) << name;
  }
  obs::MetricsRegistry::Get().ResetAll();
  obs::SetMetricsEnabled(false);
}

TEST_F(OocIdentityTest, FirstBadExecutionAcrossSegmentsMatchesInMemory) {
  // The scan validates window by window, so a bad execution past segment 0
  // must fail with the in-memory error byte for byte — and when a later
  // segment holds a different fault, the earlier one is still reported.
  std::vector<std::string> general(11, "ABCE");
  general.push_back("ABAE");  // the only repeat, in the last segment
  std::vector<std::string> special(5, "ABCE");
  special.push_back("ABE");  // short, in a middle segment
  for (int i = 0; i < 5; ++i) special.push_back("ACBE");
  special.push_back("ABCC");  // a later, different fault: a repeat
  struct Case {
    const char* name;
    EventLog log;
    MinerAlgorithm algorithm;
  };
  const Case kCases[] = {
      {"general, repeat in last segment", EventLog::FromCompactStrings(general),
       MinerAlgorithm::kGeneralDag},
      {"special, short execution mid-store",
       EventLog::FromCompactStrings(special), MinerAlgorithm::kSpecialDag},
  };
  for (const Case& c : kCases) {
    SetUp();
    SegmentStoreOptions store_options;
    store_options.target_segment_events = 16;
    WriteStore(c.log, store_options);
    auto store = SegmentStore::Open(dir_, store_options);
    ASSERT_TRUE(store.ok());
    ASSERT_GE(store->num_segments(), 3u) << c.name;
    MinerOptions options;
    options.algorithm = c.algorithm;
    auto ooc = OutOfCoreMiner(options).Mine(&*store);
    auto reference = ProcessMiner(options).Mine(c.log);
    ASSERT_FALSE(ooc.ok()) << c.name;
    ASSERT_FALSE(reference.ok()) << c.name;
    EXPECT_EQ(ooc.status().code(), reference.status().code()) << c.name;
    EXPECT_EQ(ooc.status().message(), reference.status().message())
        << c.name;
  }
}

/// Number of distinct sorted activity sets among `log`'s executions: the
/// oracle for the table steps 5-6 reduce.
int64_t CountDistinctSets(const EventLog& log) {
  std::set<std::vector<NodeId>> sets;
  for (const Execution& exec : log.executions()) {
    std::vector<NodeId> ids = exec.Sequence();
    std::sort(ids.begin(), ids.end());
    sets.insert(std::move(ids));
  }
  return static_cast<int64_t>(sets.size());
}

/// A log with repeated activities and many repeated executions: random
/// sequences of length 3-8 over six activities.
EventLog RepeatingCyclicLog(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::string>> sequences;
  for (int e = 0; e < 120; ++e) {
    std::vector<std::string> seq;
    const int64_t len = rng.UniformRange(3, 8);
    for (int64_t i = 0; i < len; ++i) {
      seq.push_back(std::string(1, static_cast<char>('A' + rng.Uniform(6))));
    }
    sequences.push_back(std::move(seq));
  }
  return EventLog::FromSequences(sequences);
}

TEST_F(OocIdentityTest, DistinctActivitySetsReduceLikeEveryExecution) {
  // Steps 5-6 reduce each distinct activity set once. Reducing every
  // execution's set instead (MineReducingEveryExecution) must give the same
  // DOT at every threads x chunk size; the memo counters must count the
  // distinct sets and the executions; and the out-of-core miner, which
  // gathers the sets during its one walk, must match at several segment
  // sizes, one resident segment included. Cyclic logs are checked in the
  // labeled id space, where Algorithm 3 runs steps 5-6.
  obs::SetMetricsEnabled(true);
  auto counters = [] {
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
    return std::pair<int64_t, int64_t>(
        snapshot.CounterTotal("general_dag.memo_hits"),
        snapshot.CounterTotal("general_dag.memo_misses"));
  };
  for (uint64_t seed : {5, 9}) {
    RandomDagOptions dag_options;
    dag_options.num_activities = 10;
    dag_options.edge_density = PaperEdgeDensity(10);
    dag_options.seed = seed;
    WalkLogOptions walk;
    walk.num_executions = 150;
    walk.seed = seed + 1;
    auto general = GenerateWalkLog(GenerateRandomDag(dag_options), walk);
    ASSERT_TRUE(general.ok());
    const EventLog* logs[] = {&*general, nullptr};
    EventLog cyclic = RepeatingCyclicLog(seed);
    logs[1] = &cyclic;
    for (const EventLog* log : logs) {
      const bool is_cyclic = log == &cyclic;
      for (int64_t threshold : {1, 2, 3}) {
        const std::string context =
            StrFormat("%s seed=%llu T=%lld", is_cyclic ? "cyclic" : "general",
                      static_cast<unsigned long long>(seed),
                      static_cast<long long>(threshold));
        // In memory: every threads x chunk size against the oracle.
        EventLog labeled = is_cyclic ? LabelOccurrences(*log, nullptr) : *log;
        const int64_t executions =
            static_cast<int64_t>(labeled.num_executions());
        const int64_t distinct = CountDistinctSets(labeled);
        ASSERT_LT(distinct, executions) << context;
        const std::string reference_dot =
            MineReducingEveryExecution(labeled, threshold).ToDot();
        for (int threads : {1, 2, 4}) {
          for (size_t chunk : {0, 1, 7}) {
            MinerOptions options;
            options.algorithm = MinerAlgorithm::kGeneralDag;
            options.noise_threshold = threshold;
            options.num_threads = threads;
            options.chunk_size = chunk;
            obs::MetricsRegistry::Get().ResetAll();
            auto mined = ProcessMiner(options).Mine(labeled);
            ASSERT_TRUE(mined.ok()) << context;
            const std::string where = StrFormat(
                "%s threads=%d chunk=%zu", context.c_str(), threads, chunk);
            EXPECT_EQ(mined->ToDot(), reference_dot) << where;
            auto [hits, misses] = counters();
            EXPECT_EQ(hits + misses, executions) << where;
            EXPECT_EQ(misses, distinct) << where;
          }
        }
        // Out of core against ProcessMiner on the materialized store.
        for (int64_t segment_events : {16, 128}) {
          for (int64_t resident : {int64_t{256} << 20, int64_t{1}}) {
            SetUp();
            SegmentStoreOptions store_options;
            store_options.target_segment_events = segment_events;
            WriteStore(*log, store_options);
            store_options.max_resident_bytes = resident;
            auto store = SegmentStore::Open(dir_, store_options);
            ASSERT_TRUE(store.ok());
            auto materialized = store->Materialize();
            ASSERT_TRUE(materialized.ok());
            MinerOptions options;
            options.noise_threshold = threshold;
            auto reference = ProcessMiner(options).Mine(*materialized);
            ASSERT_TRUE(reference.ok()) << context;
            for (int threads : {1, 2, 4}) {
              options.num_threads = threads;
              const std::string where = StrFormat(
                  "%s seg=%lld resident=%lld threads=%d", context.c_str(),
                  static_cast<long long>(segment_events),
                  static_cast<long long>(resident), threads);
              obs::MetricsRegistry::Get().ResetAll();
              auto ooc = OutOfCoreMiner(options).Mine(&*store);
              ASSERT_TRUE(ooc.ok()) << where << ": " << ooc.status().ToString();
              EXPECT_EQ(ooc->ToDot(), reference->ToDot()) << where;
              auto [hits, misses] = counters();
              EXPECT_EQ(hits + misses, executions) << where;
              EXPECT_EQ(misses, distinct) << where;
            }
          }
        }
      }
    }
  }
  obs::MetricsRegistry::Get().ResetAll();
  obs::SetMetricsEnabled(false);
}

TEST_F(OocIdentityTest, ResidentMineExportsZeroCacheHits) {
  // A one-walk mine over a store whose segments all stay resident loads
  // each segment once and never hits the cache. The cache-hit counter must
  // still be exported, at 0, in the snapshot and the OpenMetrics text.
  EventLog log = EventLog::FromCompactStrings(
      {"ABCE", "ACE", "ABCE", "ABE", "ACBE", "ABCE", "ACE", "ABE"});
  SegmentStoreOptions store_options;
  store_options.target_segment_events = 8;
  WriteStore(log, store_options);
  auto store = SegmentStore::Open(dir_, store_options);
  ASSERT_TRUE(store.ok());
  ASSERT_GE(store->num_segments(), 3u);

  obs::SetMetricsEnabled(true);
  obs::MetricsRegistry::Get().ResetAll();
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  ASSERT_TRUE(OutOfCoreMiner(options).Mine(&*store).ok());
  EXPECT_EQ(store->Footprint().loads,
            static_cast<int64_t>(store->num_segments()));
  EXPECT_EQ(store->Footprint().cache_hits, 0);

  obs::TelemetrySample sample;
  sample.metrics = obs::MetricsRegistry::Get().Snapshot();
  bool exported = false;
  for (const auto& counter : sample.metrics.counters) {
    if (counter.name == "segment.cache_hits") {
      exported = true;
      EXPECT_EQ(counter.value, 0);
    }
  }
  EXPECT_TRUE(exported);
  const std::string text = obs::OpenMetricsText(sample);
  EXPECT_NE(text.find("# TYPE procmine_segment_cache_hits counter"),
            std::string::npos);
  EXPECT_NE(text.find("\nprocmine_segment_cache_hits_total 0\n"),
            std::string::npos);
  obs::MetricsRegistry::Get().ResetAll();
  obs::SetMetricsEnabled(false);
}

}  // namespace
}  // namespace procmine
