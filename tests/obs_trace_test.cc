// Span recorder: recording semantics, the disabled fast path, concurrent
// emission from pool workers, Chrome trace-event JSON well-formedness
// (parsed back by a small strict JSON parser), and agreement between the
// pipeline counters and an oracle built from the public step functions.

#include <algorithm>
#include <cctype>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/algorithms.h"
#include "mine/edge_collector.h"
#include "mine/miner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reduce_every_execution.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"
#include "util/thread_pool.h"

namespace procmine {
namespace {

// ---------------------------------------------------------------------------
// A minimal strict JSON parser: validates syntax and extracts every string
// value keyed "name". Enough to prove the trace file is loadable.
class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : text_(text) {}

  bool Parse() {
    pos_ = 0;
    bool ok = ParseValue();
    SkipWhitespace();
    return ok && pos_ == text_.size();
  }

  const std::vector<std::string>& names() const { return names_; }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseString(std::string* out) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_++]);
    }
    return Consume('"');
  }
  bool ParseNumber() {
    SkipWhitespace();
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      std::string ignored;
      return ParseString(&ignored);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    return ParseNumber();
  }
  bool ParseObject() {
    if (!Consume('{')) return false;
    if (Consume('}')) return true;
    do {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      if (key == "name") {
        std::string value;
        SkipWhitespace();
        if (pos_ < text_.size() && text_[pos_] == '"') {
          if (!ParseString(&value)) return false;
          names_.push_back(value);
          continue;
        }
      }
      if (!ParseValue()) return false;
    } while (Consume(','));
    return Consume('}');
  }
  bool ParseArray() {
    if (!Consume('[')) return false;
    if (Consume(']')) return true;
    do {
      if (!ParseValue()) return false;
    } while (Consume(','));
    return Consume(']');
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::vector<std::string> names_;
};

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTracingEnabled(true);
    obs::SetMetricsEnabled(true);
    obs::TraceRecorder::Get().Reset();
    obs::MetricsRegistry::Get().ResetAll();
  }
  void TearDown() override {
    obs::TraceRecorder::Get().Reset();
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetTracingEnabled(false);
    obs::SetMetricsEnabled(false);
  }
};

TEST_F(ObsTraceTest, ScopedSpanRecordsOneEvent) {
  { PROCMINE_SPAN("test.scope"); }
  std::vector<obs::SpanEvent> events = obs::TraceRecorder::Get().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.scope");
  EXPECT_GE(events[0].start_ns, 0);
  EXPECT_GE(events[0].dur_ns, 0);
}

TEST_F(ObsTraceTest, DisabledSpanRecordsNothing) {
  obs::SetTracingEnabled(false);
  { PROCMINE_SPAN("test.disabled"); }
  EXPECT_TRUE(obs::TraceRecorder::Get().Snapshot().empty());
}

TEST_F(ObsTraceTest, NestedSpansAreOrderedByStart) {
  {
    PROCMINE_SPAN("test.outer");
    PROCMINE_SPAN("test.inner");
  }
  std::vector<obs::SpanEvent> events = obs::TraceRecorder::Get().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_LE(events[0].start_ns, events[1].start_ns);
  EXPECT_GE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

// Concurrent emission from pool workers on the parallel-determinism seeds:
// every span must survive, whatever thread recorded it. Must stay TSan-clean
// under -DPROCMINE_SANITIZE=thread.
TEST_F(ObsTraceTest, ConcurrentEmissionLosesNoSpans) {
  const uint64_t kSeeds[] = {1, 7, 42};
  for (int threads : {2, 4, 7}) {
    for (uint64_t seed : kSeeds) {
      obs::TraceRecorder::Get().Reset();
      const size_t kItems = 200 + seed;
      ThreadPool pool(threads);
      pool.ParallelFor(kItems, [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          PROCMINE_SPAN("test.worker_item");
        }
      });
      std::vector<obs::SpanEvent> events =
          obs::TraceRecorder::Get().Snapshot();
      EXPECT_EQ(events.size(), kItems)
          << "threads=" << threads << " seed=" << seed;
      std::vector<obs::SpanStats> stats = obs::TraceRecorder::Get().Stats();
      ASSERT_EQ(stats.size(), 1u);
      EXPECT_EQ(stats[0].count, static_cast<int64_t>(kItems));
    }
  }
}

TEST_F(ObsTraceTest, ChromeTraceJsonParsesBack) {
  ProcessGraph truth = [] {
    RandomDagOptions options;
    options.num_activities = 12;
    options.edge_density = PaperEdgeDensity(options.num_activities);
    options.seed = 3;
    return GenerateRandomDag(options);
  }();
  WalkLogOptions log_options;
  log_options.num_executions = 50;
  log_options.seed = 11;
  auto log = GenerateWalkLog(truth, log_options);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.num_threads = 4;
  auto mined = ProcessMiner(options).Mine(*log);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();

  std::string json = obs::TraceRecorder::Get().ChromeTraceJson();
  MiniJsonParser parser(json);
  ASSERT_TRUE(parser.Parse()) << json;

  // All the mining phases must appear as named events.
  std::map<std::string, int> name_counts;
  for (const std::string& name : parser.names()) ++name_counts[name];
  for (const char* expected :
       {"general_dag.mine", "general_dag.validate", "edges.collect",
        "edges.collect_shard", "edges.build_graph",
        "edges.remove_two_cycles", "edges.remove_intra_scc",
        "general_dag.reduce", "general_dag.reduce_shard"}) {
    EXPECT_GE(name_counts[expected], 1) << expected;
  }
  // Counter totals ride along as "C" events.
  EXPECT_GE(name_counts["mine.edges_collected"], 1);
  // The text summary covers the same span names.
  std::string summary = obs::TraceRecorder::Get().SummaryText();
  EXPECT_NE(summary.find("general_dag.reduce"), std::string::npos);
}

// The registry's counters must agree with Algorithm 2 replayed step by step
// from the public step functions on the same log and threshold — the
// counters are the cheap always-on view of what each step did.
TEST_F(ObsTraceTest, CountersMatchMiningTrace) {
  ProcessGraph truth = [] {
    RandomDagOptions options;
    options.num_activities = 15;
    options.edge_density = PaperEdgeDensity(options.num_activities);
    options.seed = 9;
    return GenerateRandomDag(options);
  }();
  auto clean = GenerateLinearExtensionLog(truth, 80, 21);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  NoiseOptions noise;
  noise.swap_rate = 0.02;
  noise.seed = 5;
  EventLog log = InjectNoise(*clean, noise);
  const int64_t kThreshold = 3;

  // Reference: steps 2-4 replayed one function at a time, and steps 5-6 by
  // reducing every execution, counted without touching the registry.
  obs::SetMetricsEnabled(false);
  const NodeId n = log.num_activities();
  const EdgeCounts counts = CollectPrecedenceEdges(log);
  const int64_t collected = BuildPrecedenceGraph(counts, n, 1).num_edges();
  DirectedGraph g = BuildPrecedenceGraph(counts, n, kThreshold);
  const int64_t below_threshold = collected - g.num_edges();
  int64_t two_cycle_edges = 0;
  for (const Edge& e : g.Edges()) {
    if (g.HasEdge(e.to, e.from)) ++two_cycle_edges;
  }
  RemoveTwoCycles(&g);
  SccResult scc = StronglyConnectedComponents(g);
  std::vector<int> component_size(static_cast<size_t>(scc.num_components));
  for (int32_t component : scc.component) {
    ++component_size[static_cast<size_t>(component)];
  }
  const int64_t sccs = std::count_if(component_size.begin(),
                                     component_size.end(),
                                     [](int size) { return size > 1; });
  const ProcessGraph oracle = MineReducingEveryExecution(log, kThreshold);

  obs::SetMetricsEnabled(true);
  MinerOptions options;
  options.algorithm = MinerAlgorithm::kGeneralDag;
  options.noise_threshold = kThreshold;
  for (int threads : {1, 4}) {
    obs::MetricsRegistry::Get().ResetAll();
    options.num_threads = threads;
    auto mined = ProcessMiner(options).Mine(log);
    ASSERT_TRUE(mined.ok()) << mined.status().ToString();
    EXPECT_TRUE(mined->graph() == oracle.graph()) << "threads=" << threads;
    obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
    EXPECT_EQ(snapshot.CounterTotal("mine.executions_scanned"),
              static_cast<int64_t>(log.num_executions()))
        << "threads=" << threads;
    EXPECT_EQ(snapshot.CounterTotal("mine.edges_collected"), collected)
        << "threads=" << threads;
    EXPECT_EQ(snapshot.CounterTotal("mine.edges_pruned_below_threshold"),
              below_threshold)
        << "threads=" << threads;
    EXPECT_EQ(snapshot.CounterTotal("mine.two_cycle_edges_removed"),
              two_cycle_edges)
        << "threads=" << threads;
    EXPECT_EQ(snapshot.CounterTotal("mine.sccs_merged"), sccs)
        << "threads=" << threads;
    EXPECT_EQ(snapshot.CounterTotal("general_dag.reduction_edges_marked"),
              oracle.graph().num_edges())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace procmine
