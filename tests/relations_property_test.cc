// Property test: Relations::Compute's one extent pass against the legacy
// passes (tests/legacy_relations.h) on random logs.
//
// The logs cover what either statistic can trip on: random extents with
// missing, repeated and overlapping instances (so extents, not instance
// pairs, decide the order), walks of random DAGs with swapped adjacent
// pairs at several rates (so epsilon is non-zero and pairs are seen in both
// orders), and the degenerate empty and one-activity logs. The followings
// graph, its closure and AllDependencies must equal the oracle's, and
// epsilon must equal the oracle's estimate exactly.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "legacy_relations.h"
#include "mine/relations.h"
#include "synth/log_generator.h"
#include "synth/noise_injector.h"
#include "synth/random_dag.h"
#include "util/random.h"

namespace procmine {
namespace {

void ExpectMatchesLegacy(const EventLog& log, const std::string& label) {
  Relations rel = Relations::Compute(log);
  DirectedGraph followings = legacy::Followings(log);
  EXPECT_TRUE(rel.followings_graph() == followings) << label;
  std::vector<std::vector<bool>> closure = legacy::Closure(followings);
  const size_t n = closure.size();
  ASSERT_EQ(rel.follows_closure().rows(), n) << label;
  for (size_t a = 0; a < n; ++a) {
    for (size_t b = 0; b < n; ++b) {
      ASSERT_EQ(rel.follows_closure().Test(a, b), closure[a][b])
          << label << " closure (" << a << ", " << b << ")";
    }
  }
  EXPECT_EQ(rel.AllDependencies(), legacy::Dependencies(closure)) << label;
  EXPECT_EQ(rel.epsilon(), legacy::EstimateNoiseRate(log)) << label;
}

// m executions over n activities; each holds a random number of instances
// of random activities, so activities go missing, repeat, and overlap.
EventLog RandomExtentLog(size_t n, size_t m, Rng* rng) {
  EventLog log;
  for (size_t a = 0; a < n; ++a) {
    log.dictionary().Intern("A" + std::to_string(a));
  }
  for (size_t e = 0; e < m; ++e) {
    std::vector<ActivityInstance> instances(rng->Uniform(2 * n + 1));
    for (ActivityInstance& inst : instances) {
      inst.activity = static_cast<ActivityId>(rng->Uniform(n));
      inst.start = static_cast<int64_t>(rng->Uniform(40));
      inst.end = inst.start + static_cast<int64_t>(rng->Uniform(8));
    }
    std::stable_sort(instances.begin(), instances.end(),
                     [](const ActivityInstance& x, const ActivityInstance& y) {
                       return x.start < y.start;
                     });
    Execution exec("e" + std::to_string(e));
    for (ActivityInstance& inst : instances) exec.Append(std::move(inst));
    log.AddExecution(std::move(exec));
  }
  return log;
}

TEST(RelationsPropertyTest, RandomExtentsMatchLegacy) {
  Rng rng(31);
  for (size_t n : {1u, 2u, 3u, 5u, 9u, 14u}) {
    for (size_t m : {0u, 1u, 7u, 60u}) {
      for (int trial = 0; trial < 4; ++trial) {
        ExpectMatchesLegacy(RandomExtentLog(n, m, &rng),
                            "extents n=" + std::to_string(n) +
                                " m=" + std::to_string(m) +
                                " trial=" + std::to_string(trial));
      }
    }
  }
}

TEST(RelationsPropertyTest, SwappedWalksMatchLegacy) {
  for (uint64_t seed : {3u, 8u, 21u}) {
    RandomDagOptions dag;
    dag.num_activities = 16;
    dag.edge_density = PaperEdgeDensity(dag.num_activities);
    dag.seed = seed;
    ProcessGraph truth = GenerateRandomDag(dag);
    WalkLogOptions walk;
    walk.num_executions = 300;
    walk.seed = seed + 1;
    auto clean = GenerateWalkLog(truth, walk);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    for (double swap_rate : {0.0, 0.02, 0.1, 0.3}) {
      NoiseOptions noise;
      noise.swap_rate = swap_rate;
      noise.insert_rate = swap_rate;
      noise.delete_rate = swap_rate;
      noise.seed = seed + 2;
      ExpectMatchesLegacy(InjectNoise(*clean, noise),
                          "walk seed=" + std::to_string(seed) +
                              " swap=" + std::to_string(swap_rate));
    }
  }
}

TEST(RelationsPropertyTest, SwappedChainsHaveTheLegacyEpsilon) {
  // One chain with adjacent pairs swapped at rates below the minority
  // cutoff: every swapped pair is attributed to noise.
  std::vector<std::string> execs(400, "ABCDEFG");
  for (double swap_rate : {0.01, 0.05, 0.1}) {
    NoiseOptions noise;
    noise.swap_rate = swap_rate;
    noise.seed = 5;
    EventLog noisy = InjectNoise(EventLog::FromCompactStrings(execs), noise);
    ExpectMatchesLegacy(noisy, "chain swap=" + std::to_string(swap_rate));
    EXPECT_GT(Relations::Compute(noisy).epsilon(), 0.0) << swap_rate;
  }
}

TEST(RelationsPropertyTest, DegenerateLogsMatchLegacy) {
  ExpectMatchesLegacy(EventLog(), "empty");
  ExpectMatchesLegacy(EventLog::FromCompactStrings({"A"}), "one activity");
  ExpectMatchesLegacy(EventLog::FromCompactStrings({"AAA", "A"}),
                      "one repeated activity");
  EventLog empty_executions;
  empty_executions.dictionary().Intern("A");
  empty_executions.AddExecution(Execution("e0"));
  empty_executions.AddExecution(Execution("e1"));
  ExpectMatchesLegacy(empty_executions, "executions without instances");
}

}  // namespace
}  // namespace procmine
