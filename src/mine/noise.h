// The Section 6 noise analysis: choosing the edge-count threshold T.
//
// With per-pair out-of-order error rate epsilon over m executions:
//  * P[>= T errors]                <= C(m,T) * epsilon^T
//    (a spurious dependency edge survives the threshold), and
//  * P[independent pair same order in >= m-T executions]
//                                  <= C(m,m-T) * (1/2)^(m-T)
//    (a true independence is reported as a dependency).
// Setting the two bounds equal gives epsilon^T = (1/2)^(m-T), i.e.
//   T* = m * ln 2 / (ln 2 - ln epsilon) = m / (1 + log2(1/epsilon)).

#ifndef PROCMINE_MINE_NOISE_H_
#define PROCMINE_MINE_NOISE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace procmine {

/// ln C(n, k) via lgamma; 0 for degenerate inputs.
double LogChoose(int64_t n, int64_t k);

/// Upper bound on P[a spurious edge appears in >= T of m executions] when
/// each execution errs independently with rate epsilon: C(m,T) epsilon^T,
/// clamped to [0, 1].
double SpuriousEdgeBound(int64_t m, int64_t T, double epsilon);

/// Upper bound on P[an independent pair is observed in the same order in
/// >= m - T of m executions]: C(m, m-T) (1/2)^(m-T), clamped to [0, 1].
double FalseDependencyBound(int64_t m, int64_t T);

/// max of the two bounds — the probability that the threshold T errs either
/// way on one pair.
double ThresholdErrorBound(int64_t m, int64_t T, double epsilon);

/// The T minimizing the worst-case bound: T* = m / (1 + log2(1/epsilon)),
/// rounded and clamped to [1, m]. Requires 0 < epsilon < 0.5 (the paper's
/// assumption); smaller epsilon yields smaller T.
int64_t OptimalNoiseThreshold(int64_t m, double epsilon);

/// Minority share below which a pair observed in both orders is attributed
/// to noise: truly parallel activities split their orders roughly evenly
/// and stay above it.
inline constexpr double kMinorityCutoff = 0.2;

/// Estimated per-pair out-of-order error rate of a log — the epsilon the
/// Section 6 analysis assumes "approximately known". `ordered` is the n x n
/// table whose entry a * n + b counts the executions in which a's extent
/// (first start to last end) wholly precedes b's; Relations::Compute fills
/// it in its one log walk. For every activity pair {a, b} observed in both
/// orders, its weight is ordered(a, b) + ordered(b, a): executions in which
/// the two extents overlap are not counted. The minority orientation's share
/// of that weight is attributed to noise when it is below kMinorityCutoff.
/// Returns the weighted mean minority share over the attributed pairs; 0
/// for clean or empty logs.
double EstimateNoiseRate(const std::vector<int64_t>& ordered, size_t n);

/// Converts an estimated epsilon (Relations::epsilon of a log) into a
/// threshold for that log's m executions: epsilon is clamped into
/// OptimalNoiseThreshold's domain, and a clean log (epsilon 0) gets
/// threshold 1.
int64_t SuggestNoiseThreshold(int64_t m, double epsilon);

}  // namespace procmine

#endif  // PROCMINE_MINE_NOISE_H_
