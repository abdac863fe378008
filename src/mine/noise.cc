#include "mine/noise.h"

#include <algorithm>
#include <cmath>

#include <vector>

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

double EstimateNoiseRate(const EventLog& log, double minority_cutoff) {
  PROCMINE_SPAN("noise.estimate");
  const ActivityId n = log.num_activities();
  if (n == 0 || log.num_executions() == 0) return 0.0;

  // ordered[a*n+b] = executions in which a wholly precedes b.
  std::vector<int64_t> ordered(static_cast<size_t>(n) *
                                   static_cast<size_t>(n),
                               0);
  auto idx = [n](ActivityId a, ActivityId b) {
    return static_cast<size_t>(a) * static_cast<size_t>(n) +
           static_cast<size_t>(b);
  };
  std::vector<int64_t> first_start(static_cast<size_t>(n));
  std::vector<int64_t> last_end(static_cast<size_t>(n));
  std::vector<bool> present(static_cast<size_t>(n));
  std::vector<size_t> touched;
  for (const Execution& exec : log.executions()) {
    touched.clear();
    for (const ActivityInstance& inst : exec.instances()) {
      size_t a = static_cast<size_t>(inst.activity);
      if (!present[a]) {
        present[a] = true;
        touched.push_back(a);
        first_start[a] = inst.start;
        last_end[a] = inst.end;
      } else {
        first_start[a] = std::min(first_start[a], inst.start);
        last_end[a] = std::max(last_end[a], inst.end);
      }
    }
    // Only pairs of activities present in this execution can be ordered in
    // it, so the pair loop is O(p^2) in its activity count, not O(p*n).
    for (size_t a : touched) {
      for (size_t b : touched) {
        if (a != b && last_end[a] < first_start[b]) {
          ++ordered[a * static_cast<size_t>(n) + b];
        }
      }
    }
    for (size_t a : touched) present[a] = false;
  }

  double weighted_minority = 0.0;
  double weight = 0.0;
  int64_t noisy_pairs = 0;
  for (ActivityId a = 0; a < n; ++a) {
    for (ActivityId b = a + 1; b < n; ++b) {
      int64_t ab = ordered[idx(a, b)];
      int64_t ba = ordered[idx(b, a)];
      int64_t total = ab + ba;
      if (total == 0 || ab == 0 || ba == 0) continue;  // clean pair
      double minority = static_cast<double>(std::min(ab, ba)) /
                        static_cast<double>(total);
      if (minority >= minority_cutoff) continue;  // genuinely parallel
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
