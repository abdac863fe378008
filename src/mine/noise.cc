#include "mine/noise.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace procmine {

double LogChoose(int64_t n, int64_t k) {
  if (k < 0 || k > n || n < 0) return -INFINITY;
  return std::lgamma(static_cast<double>(n) + 1) -
         std::lgamma(static_cast<double>(k) + 1) -
         std::lgamma(static_cast<double>(n - k) + 1);
}

namespace {
double ClampProbability(double log_p) {
  if (log_p >= 0) return 1.0;
  return std::exp(log_p);
}
}  // namespace

double SpuriousEdgeBound(int64_t m, int64_t T, double epsilon) {
  PROCMINE_CHECK_GT(epsilon, 0.0);
  if (T <= 0) return 1.0;
  if (T > m) return 0.0;
  return ClampProbability(LogChoose(m, T) +
                          static_cast<double>(T) * std::log(epsilon));
}

double FalseDependencyBound(int64_t m, int64_t T) {
  int64_t k = m - T;
  if (k <= 0) return 1.0;
  return ClampProbability(LogChoose(m, k) +
                          static_cast<double>(k) * std::log(0.5));
}

double ThresholdErrorBound(int64_t m, int64_t T, double epsilon) {
  return std::max(SpuriousEdgeBound(m, T, epsilon),
                  FalseDependencyBound(m, T));
}

int64_t OptimalNoiseThreshold(int64_t m, double epsilon) {
  PROCMINE_CHECK_GT(m, 0);
  PROCMINE_CHECK_GT(epsilon, 0.0);
  PROCMINE_CHECK_LT(epsilon, 0.5);
  // epsilon^T = (1/2)^(m-T)  =>  T (ln eps - ln 1/2) = -m ln 2
  double t = static_cast<double>(m) * std::log(2.0) /
             (std::log(2.0) - std::log(epsilon));
  int64_t rounded = static_cast<int64_t>(std::llround(t));
  return std::clamp<int64_t>(rounded, 1, m);
}

double EstimateNoiseRate(const std::vector<int64_t>& ordered, size_t n) {
  PROCMINE_SPAN("noise.estimate");
  PROCMINE_CHECK_EQ(ordered.size(), n * n);
  double weighted_minority = 0.0;
  double weight = 0.0;
  int64_t noisy_pairs = 0;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = a + 1; b < n; ++b) {
      int64_t ab = ordered[a * n + b];
      int64_t ba = ordered[b * n + a];
      int64_t total = ab + ba;
      if (total == 0 || ab == 0 || ba == 0) continue;  // clean pair
      double minority = static_cast<double>(std::min(ab, ba)) /
                        static_cast<double>(total);
      if (minority >= kMinorityCutoff) continue;  // genuinely parallel
      weighted_minority += minority * static_cast<double>(total);
      weight += static_cast<double>(total);
      ++noisy_pairs;
    }
  }
  static obs::Counter* noisy =
      obs::MetricsRegistry::Get().GetCounter("noise.noisy_pairs");
  noisy->Add(noisy_pairs);
  return weight == 0.0 ? 0.0 : weighted_minority / weight;
}

int64_t SuggestNoiseThreshold(int64_t m, double epsilon) {
  if (epsilon <= 0.0) return 1;
  return OptimalNoiseThreshold(m, std::min(epsilon, 0.499));
}

}  // namespace procmine
