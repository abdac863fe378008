// Telemetry sampler: /proc self-stats sanity, phase marker nesting, the
// OpenMetrics name mangling and exposition format, status/JSONL schemas
// (pinned by parsing them back), shard-dependent delta exclusion, the
// bounded sample ring, and a live sampler racing counter writers (the
// TSan-relevant case).

#include "obs/telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/budget.h"
#include "util/json.h"

namespace procmine {
namespace {

using obs::OpenMetricsName;
using obs::OpenMetricsText;
using obs::ProcSelfStats;
using obs::ReadProcSelfStats;
using obs::StatusJson;
using obs::TelemetryOptions;
using obs::TelemetrySample;
using obs::TelemetrySampleJsonLine;
using obs::TelemetrySampler;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetMetricsEnabled(true);
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetCurrentPhase(nullptr);
    dir_ = ::testing::TempDir() + "/telemetry_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::string cleanup = "rm -rf " + dir_ + " && mkdir -p " + dir_;
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
  }
  void TearDown() override {
    obs::SetCurrentPhase(nullptr);
    obs::MetricsRegistry::Get().ResetAll();
    obs::SetMetricsEnabled(false);
  }

  /// A sample whose metrics section is the live registry snapshot.
  TelemetrySample SampleNow() {
    TelemetrySample s;
    s.seq = 0;
    s.t_ns = 1000000;
    s.unix_ms = 1700000000000;
    s.phase = obs::CurrentPhaseName();
    s.process = ReadProcSelfStats();
    s.metrics = obs::MetricsRegistry::Get().Snapshot();
    return s;
  }

  std::string dir_;
};

TEST_F(TelemetryTest, ProcSelfStatsLooksSane) {
  ProcSelfStats stats = ReadProcSelfStats();
  EXPECT_GT(stats.rss_bytes, 0);
  EXPECT_GE(stats.vm_bytes, stats.rss_bytes);
  EXPECT_GE(stats.threads, 1);
  EXPECT_GE(stats.cpu_user_seconds, 0.0);
  EXPECT_GE(stats.cpu_system_seconds, 0.0);
  EXPECT_GE(stats.major_faults, 0);
  // io/fd fields are either unavailable (-1) or sane.
  EXPECT_GE(stats.io_read_bytes, -1);
  EXPECT_GE(stats.io_write_bytes, -1);
  if (stats.open_fds >= 0) {
    EXPECT_GE(stats.open_fds, 3);  // stdio at least
  }
}

TEST_F(TelemetryTest, PhaseMarkerNestsAndRestores) {
  EXPECT_STREQ(obs::CurrentPhaseName(), "idle");
  {
    PROCMINE_PHASE("outer");
    EXPECT_STREQ(obs::CurrentPhaseName(), "outer");
    {
      PROCMINE_PHASE("inner");
      EXPECT_STREQ(obs::CurrentPhaseName(), "inner");
    }
    EXPECT_STREQ(obs::CurrentPhaseName(), "outer");
  }
  EXPECT_STREQ(obs::CurrentPhaseName(), "idle");
}

TEST_F(TelemetryTest, OpenMetricsNameIsPrefixedAndSanitized) {
  EXPECT_EQ(OpenMetricsName("segment.cache_hits"),
            "procmine_segment_cache_hits");
  EXPECT_EQ(OpenMetricsName("ooc.windows_visited"),
            "procmine_ooc_windows_visited");
  // Anything outside [a-zA-Z0-9_:] becomes an underscore.
  EXPECT_EQ(OpenMetricsName("weird-name/with spaces"),
            "procmine_weird_name_with_spaces");
}

TEST_F(TelemetryTest, OpenMetricsTextCarriesRegistryAndProcessMetrics) {
  obs::MetricsRegistry::Get().GetCounter("telemetry_test.ticks")->Add(5);
  obs::MetricsRegistry::Get().GetGauge("telemetry_test.level")->Set(42);
  obs::Histogram* h = obs::MetricsRegistry::Get().GetHistogram(
      "telemetry_test.latency", {10, 100});
  h->Record(7);
  h->Record(50);
  h->Record(5000);

  TelemetrySample s = SampleNow();
  std::string text = OpenMetricsText(s);

  // OpenMetrics family names carry no _total suffix; the sample line does.
  EXPECT_NE(text.find("# TYPE procmine_telemetry_test_ticks counter"),
            std::string::npos);
  EXPECT_NE(text.find("procmine_telemetry_test_ticks_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("procmine_telemetry_test_level 42"), std::string::npos);
  // Cumulative le-buckets plus the +Inf catch-all and sum/count series.
  EXPECT_NE(text.find("procmine_telemetry_test_latency_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("procmine_telemetry_test_latency_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(
      text.find("procmine_telemetry_test_latency_bucket{le=\"+Inf\"} 3"),
      std::string::npos);
  EXPECT_NE(text.find("procmine_telemetry_test_latency_count 3"),
            std::string::npos);
  // Standard process metrics and the heartbeat.
  EXPECT_NE(text.find("# TYPE process_resident_memory_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE process_cpu_seconds counter"),
            std::string::npos);
  EXPECT_NE(text.find("process_cpu_seconds_total "), std::string::npos);
  EXPECT_NE(text.find("procmine_telemetry_heartbeat_unix_seconds"),
            std::string::npos);
  EXPECT_NE(text.find("procmine_phase_info{phase=\"idle\"} 1"),
            std::string::npos);
  // Ends with the OpenMetrics terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST_F(TelemetryTest, StatusJsonParsesAndCarriesProgress) {
  obs::MetricsRegistry::Get().GetCounter("log.executions_read")->Add(123);
  obs::MetricsRegistry::Get().GetCounter("segment.cache_hits")->Add(9);
  obs::MetricsRegistry::Get().GetGauge("ooc.windows_total")->Set(8);

  TelemetrySample s = SampleNow();
  TelemetryOptions options;
  options.interval_ms = 250;
  options.command = "mine";
  options.source = "demo.log";

  auto doc = json::Parse(StatusJson(s, options));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* sv = doc->Find("schema_version");
  ASSERT_NE(sv, nullptr);
  EXPECT_EQ(sv->AsInt64(), obs::kTelemetrySchemaVersion);
  EXPECT_GT(doc->Find("pid")->AsInt64(), 0);
  EXPECT_EQ(doc->Find("command")->AsString(), "mine");
  EXPECT_EQ(doc->Find("source")->AsString(), "demo.log");
  EXPECT_EQ(doc->Find("phase")->AsString(), "idle");

  const json::Value* progress = doc->Find("progress");
  ASSERT_NE(progress, nullptr);
  EXPECT_EQ(progress->Find("executions_read")->AsInt64(), 123);
  const json::Value* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->Find("hits")->AsInt64(), 9);
  EXPECT_EQ(progress->Find("windows_total")->AsInt64(), 8);
  // No budget registered: explicit null, not absent.
  const json::Value* budget = doc->Find("budget");
  ASSERT_NE(budget, nullptr);
  EXPECT_TRUE(budget->is_null());
  const json::Value* process = doc->Find("process");
  ASSERT_NE(process, nullptr);
  EXPECT_GT(process->Find("rss_bytes")->AsInt64(), 0);
}

TEST_F(TelemetryTest, JsonlLineDeltasExcludeShardDependentMetrics) {
  obs::Counter* steady =
      obs::MetricsRegistry::Get().GetCounter("telemetry_test.steady");
  obs::Counter* sharded =
      obs::MetricsRegistry::Get().GetCounter("segment.decode_us");
  ASSERT_TRUE(obs::ShardDependentMetric("segment.decode_us"));

  steady->Add(2);
  sharded->Add(2);
  obs::MetricsSnapshot prev = obs::MetricsRegistry::Get().Snapshot();
  steady->Add(3);
  sharded->Add(3);

  TelemetrySample s = SampleNow();
  auto doc = json::Parse(TelemetrySampleJsonLine(s, &prev));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("schema_version")->AsInt64(),
            obs::kTelemetrySchemaVersion);

  // Cumulative section has both; the delta section only the shard-stable one.
  const json::Value* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("telemetry_test.steady")->AsInt64(), 5);
  EXPECT_EQ(counters->Find("segment.decode_us")->AsInt64(), 5);
  const json::Value* deltas = doc->Find("deltas");
  ASSERT_NE(deltas, nullptr);
  EXPECT_EQ(deltas->Find("telemetry_test.steady")->AsInt64(), 3);
  EXPECT_EQ(deltas->Find("segment.decode_us"), nullptr);
}

TEST_F(TelemetryTest, SamplerEmitsParseableArtifactsUnderConcurrentWrites) {
  TelemetryOptions options;
  options.interval_ms = 5;
  options.ring_capacity = 4;
  options.jsonl_path = dir_ + "/telemetry.jsonl";
  options.openmetrics_path = dir_ + "/metrics.om";
  options.status_path = dir_ + "/status.json";
  options.command = "test";
  options.source = "unit";

  TelemetrySampler sampler(options);
  ASSERT_TRUE(sampler.Start().ok());

  // Writers race the sampler's snapshots — the interesting TSan case.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&stop] {
      obs::Counter* c =
          obs::MetricsRegistry::Get().GetCounter("telemetry_test.load");
      while (!stop.load(std::memory_order_relaxed)) c->Increment();
    });
  }
  while (sampler.samples_taken() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(sampler.Stop().ok());
  ASSERT_TRUE(sampler.Stop().ok());  // idempotent

  // Ring stays bounded no matter how many samples were taken.
  std::vector<TelemetrySample> ring = sampler.RingSnapshot();
  EXPECT_LE(ring.size(), 4u);
  EXPECT_GE(sampler.samples_taken(), 6);
  for (size_t i = 1; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].seq, ring[i - 1].seq + 1);  // oldest first, contiguous
  }

  // Every JSONL line parses; seq and the counter totals are monotonic.
  std::ifstream jsonl(options.jsonl_path);
  ASSERT_TRUE(jsonl.is_open());
  std::string line;
  int64_t lines = 0, prev_seq = -1, prev_total = -1;
  while (std::getline(jsonl, line)) {
    auto doc = json::Parse(line);
    ASSERT_TRUE(doc.ok()) << "line " << lines << ": " << line;
    int64_t seq = doc->Find("seq")->AsInt64();
    EXPECT_GT(seq, prev_seq);
    prev_seq = seq;
    const json::Value* counters = doc->Find("counters");
    ASSERT_NE(counters, nullptr);
    const json::Value* total = counters->Find("telemetry_test.load");
    if (total != nullptr) {
      EXPECT_GE(total->AsInt64(), prev_total);
      prev_total = total->AsInt64();
    }
    ++lines;
  }
  EXPECT_GE(lines, 2);

  // The exposition ends sealed and the status file parses whole — they are
  // atomically rewritten, so whatever we read is a complete document.
  std::ifstream om(options.openmetrics_path);
  std::stringstream om_text;
  om_text << om.rdbuf();
  std::string om_str = om_text.str();
  ASSERT_GE(om_str.size(), 6u);
  EXPECT_EQ(om_str.substr(om_str.size() - 6), "# EOF\n");

  std::ifstream status(options.status_path);
  std::stringstream status_text;
  status_text << status.rdbuf();
  auto status_doc = json::Parse(status_text.str());
  ASSERT_TRUE(status_doc.ok()) << status_doc.status().ToString();
  EXPECT_EQ(status_doc->Find("command")->AsString(), "test");
}

TEST_F(TelemetryTest, SamplerReportsBudgetHeadroom) {
  RunBudget::Limits limits;
  limits.deadline_ms = 3600 * 1000;
  limits.max_memory_bytes = 1ll << 40;
  RunBudget budget(limits);
  budget.Start();

  TelemetryOptions options;
  options.status_path = dir_ + "/status.json";
  options.interval_ms = 1000;
  TelemetrySampler sampler(options);
  ASSERT_TRUE(sampler.Start().ok());
  sampler.SetBudget(&budget);
  sampler.SampleOnce();
  sampler.SetBudget(nullptr);
  ASSERT_TRUE(sampler.Stop().ok());

  std::vector<TelemetrySample> ring = sampler.RingSnapshot();
  ASSERT_GE(ring.size(), 2u);
  const TelemetrySample& with_budget = ring[1];
  ASSERT_TRUE(with_budget.has_budget);
  EXPECT_EQ(with_budget.budget_limits.deadline_ms, 3600 * 1000);
  EXPECT_TRUE(with_budget.budget_exhausted.empty());

  auto doc = json::Parse(StatusJson(with_budget, options));
  ASSERT_TRUE(doc.ok());
  const json::Value* b = doc->Find("budget");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_object());
  EXPECT_EQ(b->Find("deadline_ms")->AsInt64(), 3600 * 1000);
  EXPECT_GT(b->Find("deadline_headroom_ms")->AsInt64(), 0);
  EXPECT_GT(b->Find("memory_headroom_bytes")->AsInt64(), 0);
  EXPECT_EQ(b->Find("exhausted")->AsString(), "");
}

}  // namespace
}  // namespace procmine
