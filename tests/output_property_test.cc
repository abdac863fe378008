// Property test: the outputs o(u) an END event records (Definition 2) stay
// on the instance they were recorded with, through every log format and
// every path that reorders, drops or copies instances.
//
// Random logs put 0-3 values on a random subset of END events. Some
// executions always carry outputs on their first and last instance, one
// carries them on every instance, one repeats a single activity, and start
// times are often shared across activities. An activity never overlaps
// itself, so FIFO START/END pairing is exactly the pairing the generator
// recorded. The oracle maps each recorded (execution, activity, start, end)
// to its values; it is built from the same records as the input Event list.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "log/binary_log.h"
#include "log/event_log.h"
#include "log/reader.h"
#include "log/segment_store.h"
#include "log/streaming_reader.h"
#include "log/transform.h"
#include "log/writer.h"
#include "log/xes.h"
#include "mine/cyclic_miner.h"
#include "output_of.h"
#include "synth/noise_injector.h"
#include "util/random.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "workflow/engine.h"

namespace procmine {
namespace {

using Key = std::tuple<std::string, std::string, int64_t, int64_t>;
using Oracle = std::map<Key, std::vector<int64_t>>;

struct RandomLog {
  std::vector<Event> events;
  Oracle oracle;
};

std::string Describe(const Key& key) {
  return StrFormat("%s/%s[%lld,%lld]", std::get<0>(key).c_str(),
                   std::get<1>(key).c_str(),
                   static_cast<long long>(std::get<2>(key)),
                   static_cast<long long>(std::get<3>(key)));
}

int64_t RandomValue(Rng* rng) {
  switch (rng->Uniform(4)) {
    case 0:
      return static_cast<int64_t>(rng->NextUint64());  // any int64
    case 1:
      return rng->UniformRange(-1000000, 1000000);
    default:
      return rng->UniformRange(-9, 99);
  }
}

RandomLog MakeLog(uint64_t seed) {
  Rng rng(seed);
  RandomLog out;
  const int num_activities = 2 + static_cast<int>(rng.Uniform(5));
  const int num_execs = 3 + static_cast<int>(rng.Uniform(10));
  for (int e = 0; e < num_execs; ++e) {
    const std::string name = StrFormat("case_%03d", e);
    const bool every = e == 0;         // every instance has outputs
    const bool repeats = e == 1;       // one activity, over and over
    const bool ends = e % 3 == 2;      // outputs on first and last instance
    const int n = 1 + static_cast<int>(rng.Uniform(8));
    std::vector<int64_t> busy_until(static_cast<size_t>(num_activities),
                                    std::numeric_limits<int64_t>::min());
    int64_t prev_start = rng.UniformRange(-20, 20);
    std::vector<Event> local;
    for (int k = 0; k < n; ++k) {
      const int a = repeats ? 0 : static_cast<int>(rng.Uniform(
                                      static_cast<uint64_t>(num_activities)));
      const std::string activity = StrFormat("act_%d", a);
      // A third of the instances start with the previous one.
      int64_t start = rng.Uniform(3) == 0 ? prev_start
                                          : prev_start + rng.UniformRange(1, 4);
      start = std::max(start, busy_until[static_cast<size_t>(a)] + 1);
      const int64_t end = start + rng.UniformRange(0, 3);
      busy_until[static_cast<size_t>(a)] = end;
      prev_start = start;
      std::vector<int64_t> values;
      const bool forced = every || (ends && (k == 0 || k == n - 1));
      if (forced || rng.Bernoulli(0.4)) {
        const int count = forced ? 1 + static_cast<int>(rng.Uniform(3))
                                 : static_cast<int>(rng.Uniform(4));
        for (int v = 0; v < count; ++v) values.push_back(RandomValue(&rng));
      }
      const bool inserted =
          out.oracle.emplace(Key{name, activity, start, end}, values).second;
      EXPECT_TRUE(inserted) << "generator repeated a key";
      local.push_back({name, activity, EventType::kStart, start, {}});
      local.push_back({name, activity, EventType::kEnd, end, values});
    }
    // Time order, START before END at equal timestamps, otherwise the order
    // the instances were drawn in.
    std::stable_sort(local.begin(), local.end(),
                     [](const Event& x, const Event& y) {
                       if (x.timestamp != y.timestamp) {
                         return x.timestamp < y.timestamp;
                       }
                       return x.type < y.type;
                     });
    out.events.insert(out.events.end(), local.begin(), local.end());
  }
  return out;
}

/// Checks every instance of `exec` against the oracle; returns how many
/// instances it saw.
size_t ExpectExecutionFollows(const Execution& exec,
                              const ActivityDictionary& dict,
                              const Oracle& oracle,
                              const std::string& context) {
  for (size_t i = 0; i < exec.size(); ++i) {
    const Key key{exec.name(), dict.Name(exec[i].activity), exec[i].start,
                  exec[i].end};
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      ADD_FAILURE() << context << ": unrecorded instance " << Describe(key);
      continue;
    }
    EXPECT_EQ(OutputOf(exec, i), it->second)
        << context << ": " << Describe(key);
  }
  // The sparse list is in instance order and holds no empty entry.
  for (size_t k = 0; k < exec.outputs().size(); ++k) {
    EXPECT_FALSE(exec.outputs()[k].values.empty()) << context;
    if (k > 0) {
      EXPECT_LT(exec.outputs()[k - 1].instance, exec.outputs()[k].instance)
          << context;
    }
  }
  return exec.size();
}

/// Every instance of `log` carries the values recorded for it; with
/// `complete`, the log also holds every recorded instance.
void ExpectOutputsFollow(const EventLog& log, const Oracle& oracle,
                         bool complete, const std::string& context) {
  size_t seen = 0;
  for (const Execution& exec : log.executions()) {
    seen += ExpectExecutionFollows(exec, log.dictionary(), oracle, context);
  }
  if (complete) {
    EXPECT_EQ(seen, oracle.size()) << context;
  }
}

class OutputPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    input_ = MakeLog(GetParam());
    auto log = EventLog::FromEvents(input_.events);
    ASSERT_TRUE(log.ok()) << log.status().ToString();
    log_ = std::move(*log);
    // One directory per test, since ctest may run them side by side.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = ::testing::TempDir() + "/output_property_" + name;
    ASSERT_EQ(std::system(("rm -rf " + dir_).c_str()), 0);
    ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
  }
  void TearDown() override {
    EXPECT_EQ(std::system(("rm -rf " + dir_).c_str()), 0);
  }

  RandomLog input_;
  EventLog log_;
  std::string dir_;
};

TEST_P(OutputPropertyTest, FromEventsAndToEvents) {
  ExpectOutputsFollow(log_, input_.oracle, true, "FromEvents");
  auto back = EventLog::FromEvents(log_.ToEvents());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectOutputsFollow(*back, input_.oracle, true, "ToEvents");
}

TEST_P(OutputPropertyTest, TextFormat) {
  const std::string text = LogWriter::ToString(log_);
  const std::string path = dir_ + "/log.txt";
  ASSERT_TRUE(LogWriter::WriteFile(log_, path).ok());
  for (int threads : {1, 3}) {
    LogParseOptions options;
    options.num_threads = threads;
    const std::string context = StrFormat("text threads=%d", threads);
    auto parsed = LogReader::ParseText(text, options);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExpectOutputsFollow(*parsed, input_.oracle, true, "ParseText " + context);
    auto read = LogReader::ReadFile(path, options);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ExpectOutputsFollow(*read, input_.oracle, true, "ReadFile " + context);
  }
  size_t seen = 0;
  auto streamed = StreamLog(
      text, [&](const Execution& exec, const ActivityDictionary& dict) {
        seen += ExpectExecutionFollows(exec, dict, input_.oracle, "StreamLog");
        return Status::OK();
      });
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(seen, input_.oracle.size());
}

TEST_P(OutputPropertyTest, BinaryFormat) {
  const std::string bytes = EncodeBinaryLog(log_);
  auto decoded = DecodeBinaryLog(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectOutputsFollow(*decoded, input_.oracle, true, "PMLG");
  // Salvage keeps a prefix of whole executions, each with its outputs.
  Rng rng(GetParam());
  BinaryDecodeOptions options;
  options.recovery = RecoveryPolicy::kSkip;
  for (int cut = 0; cut < 4; ++cut) {
    const size_t size = bytes.size() / 2 + rng.Uniform(bytes.size() / 2);
    auto salvaged = DecodeBinaryLog(bytes.substr(0, size), options);
    if (!salvaged.ok()) continue;  // cut inside the dictionary
    ExpectOutputsFollow(*salvaged, input_.oracle, false, "PMLG salvage");
  }
}

TEST_P(OutputPropertyTest, XesFormat) {
  auto back = FromXes(ToXes(log_));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectOutputsFollow(*back, input_.oracle, true, "XES");
}

TEST_P(OutputPropertyTest, SegmentStore) {
  Rng rng(GetParam());
  SegmentStoreOptions options;
  options.target_segment_events = 2 + static_cast<int64_t>(rng.Uniform(40));
  options.block_executions = 1 + static_cast<int64_t>(rng.Uniform(4));
  {
    auto writer = SegmentedLogWriter::Create(dir_ + "/store", options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->AppendLog(log_).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto store = SegmentStore::Open(dir_ + "/store", options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  size_t seen = 0;
  for (size_t i = 0; i < store->num_segments(); ++i) {
    auto window = store->Segment(i);
    ASSERT_TRUE(window.ok()) << window.status().ToString();
    for (const Execution& exec : (*window)->executions()) {
      seen += ExpectExecutionFollows(exec, (*window)->dictionary(),
                                     input_.oracle, "Segment");
    }
  }
  EXPECT_EQ(seen, input_.oracle.size());
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ExpectOutputsFollow(*materialized, input_.oracle, true, "Materialize");

  // Salvage of every segment, whole and torn.
  for (const SegmentInfo& info : store->segments()) {
    std::ifstream in(dir_ + "/store/" + info.file, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = buffer.str();
    for (size_t size : {bytes.size(), bytes.size() / 2, bytes.size() - 9}) {
      segment_internal::SalvageResult salvage = segment_internal::SalvageSegment(
          std::string_view(bytes).substr(0, size),
          store->dictionary().size());
      for (const Execution& exec : salvage.executions) {
        ExpectExecutionFollows(exec, store->dictionary(), input_.oracle,
                               "SalvageSegment");
      }
    }
  }
}

TEST_P(OutputPropertyTest, SpillDir) {
  // What `mine --spill-dir` does: stream the text into a segment writer.
  SegmentStoreOptions options;
  options.target_segment_events = 16;
  options.block_executions = 2;
  {
    auto writer = SegmentedLogWriter::Create(dir_ + "/spill", options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    auto streamed = StreamLog(
        LogWriter::ToString(log_),
        [&](const Execution& exec, const ActivityDictionary& dict) {
          return writer->Append(exec, dict);
        });
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto store = SegmentStore::Open(dir_ + "/spill", options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto materialized = store->Materialize();
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  ExpectOutputsFollow(*materialized, input_.oracle, true, "spill");
}

TEST_P(OutputPropertyTest, TransformFilters) {
  const std::vector<std::string> names = log_.dictionary().names();
  std::vector<std::string> half;
  for (size_t i = 0; i < names.size(); i += 2) half.push_back(names[i]);
  auto projected = ProjectActivities(log_, half);
  ASSERT_TRUE(projected.ok());
  ExpectOutputsFollow(*projected, input_.oracle, false, "ProjectActivities");
  auto dropped = DropActivities(log_, half);
  ASSERT_TRUE(dropped.ok());
  ExpectOutputsFollow(*dropped, input_.oracle, false, "DropActivities");
  EXPECT_EQ(projected->TotalInstances() + dropped->TotalInstances(),
            log_.TotalInstances());

  ExpectOutputsFollow(
      FilterExecutions(log_, [](const Execution& e) { return e.size() > 2; }),
      input_.oracle, false, "FilterExecutions");
  ExpectOutputsFollow(SampleExecutions(log_, 2, GetParam()), input_.oracle,
                      false, "SampleExecutions");
  ExpectOutputsFollow(TakeExecutions(log_, 2), input_.oracle, false,
                      "TakeExecutions");
  ExpectOutputsFollow(DeduplicateSequences(log_, nullptr), input_.oracle,
                      false, "DeduplicateSequences");
  auto [head, tail] = SplitLog(log_, log_.num_executions() / 2);
  ExpectOutputsFollow(MergeLogs({&tail, &head}), input_.oracle, true,
                      "MergeLogs");
}

TEST_P(OutputPropertyTest, RelabelLogKeepsOutputs) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    std::vector<ActivityId> to_base;
    EventLog labeled = LabelOccurrences(log_, &to_base, p);
    ASSERT_EQ(labeled.num_executions(), log_.num_executions());
    for (size_t e = 0; e < log_.num_executions(); ++e) {
      const Execution& x = labeled.execution(e);
      const Execution& y = log_.execution(e);
      ASSERT_EQ(x.size(), y.size());
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(to_base[static_cast<size_t>(x[i].activity)], y[i].activity);
        EXPECT_EQ(x[i].start, y[i].start);
        EXPECT_EQ(x[i].end, y[i].end);
        EXPECT_EQ(OutputOf(x, i), OutputOf(y, i)) << y.name() << " " << i;
      }
    }
  }
}

using Spelled = std::multiset<std::pair<std::string, std::vector<int64_t>>>;

/// (activity name, values) of every instance of `exec`.
Spelled Spell(const Execution& exec, const ActivityDictionary& dict) {
  Spelled out;
  for (size_t i = 0; i < exec.size(); ++i) {
    out.emplace(dict.Name(exec[i].activity), OutputOf(exec, i));
  }
  return out;
}

TEST_P(OutputPropertyTest, NoiseInjectorMovesOutputsWithInstances) {
  // Swaps alone permute each execution: the (activity, values) multiset
  // is unchanged.
  NoiseOptions swaps;
  swaps.swap_rate = 0.5;
  swaps.seed = GetParam();
  EventLog swapped = InjectNoise(log_, swaps);
  ASSERT_EQ(swapped.num_executions(), log_.num_executions());
  for (size_t e = 0; e < log_.num_executions(); ++e) {
    EXPECT_EQ(Spell(swapped.execution(e), swapped.dictionary()),
              Spell(log_.execution(e), log_.dictionary()));
  }
  // Inserted instances record nothing; every other reported instance is a
  // source instance with its values.
  NoiseOptions all = swaps;
  all.insert_rate = 0.5;
  all.delete_rate = 0.5;
  NoiseReport report;
  EventLog noisy = InjectNoise(log_, all, &report);
  ASSERT_EQ(noisy.num_executions(), log_.num_executions());
  for (size_t e = 0; e < log_.num_executions(); ++e) {
    const Execution& exec = noisy.execution(e);
    Spelled source = Spell(log_.execution(e), log_.dictionary());
    int64_t unmatched = 0;
    for (size_t i = 0; i < exec.size(); ++i) {
      auto it = source.find({noisy.dictionary().Name(exec[i].activity),
                             OutputOf(exec, i)});
      if (it != source.end()) {
        source.erase(it);
      } else {
        EXPECT_TRUE(exec.output(i).empty()) << exec.name() << " " << i;
        ++unmatched;
      }
    }
    EXPECT_LE(unmatched, 1) << exec.name();
  }
}

TEST(OutputPropertyEngineTest, RecordedOutputsStayInTheirActivityRange) {
  // Activity v draws 1 + v % 3 values in [1000 v, 1000 v + 999], so a value
  // on the wrong instance shows up as out of range or the wrong count.
  ProcessDefinition def(ProcessGraph::FromNamedEdges({{"S", "W1"},
                                                      {"S", "W2"},
                                                      {"S", "W3"},
                                                      {"W1", "E"},
                                                      {"W2", "E"},
                                                      {"W3", "E"}}));
  for (NodeId v = 0; v < def.num_activities(); ++v) {
    def.SetOutputSpec(v, OutputSpec::Uniform(1 + v % 3, 1000 * v,
                                              1000 * v + 999));
  }
  std::vector<EngineOptions> modes(4);
  modes[1].parallel_overlap = true;
  modes[2].num_agents = 2;  // overlapping intervals, sorted by start
  modes[2].min_duration = 1;
  modes[2].max_duration = 9;
  modes[3].mode = ExecutionMode::kTokenFire;
  for (size_t m = 0; m < modes.size(); ++m) {
    for (bool record : {true, false}) {
      EngineOptions options = modes[m];
      options.record_outputs = record;
      Engine engine(&def, options);
      auto log = engine.GenerateLog(20, 7 + m);
      ASSERT_TRUE(log.ok()) << log.status().ToString();
      for (const Execution& exec : log->executions()) {
        for (size_t i = 0; i < exec.size(); ++i) {
          const std::vector<int64_t> values = OutputOf(exec, i);
          if (!record) {
            EXPECT_TRUE(values.empty());
            continue;
          }
          const ActivityId v = exec[i].activity;
          ASSERT_EQ(values.size(), static_cast<size_t>(1 + v % 3))
              << "mode " << m;
          for (int64_t value : values) {
            EXPECT_GE(value, 1000 * v) << "mode " << m;
            EXPECT_LE(value, 1000 * v + 999) << "mode " << m;
          }
        }
      }
    }
  }
}

TEST(OutputPropertyEngineTest, FromSequenceRecordsNoOutputs) {
  const Execution exec = Execution::FromSequence("s", {2, 0, 2, 1});
  EXPECT_TRUE(exec.outputs().empty());
  for (size_t i = 0; i < exec.size(); ++i) EXPECT_TRUE(exec.output(i).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, OutputPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace procmine
