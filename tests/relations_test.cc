#include "mine/relations.h"

#include <gtest/gtest.h>

namespace procmine {
namespace {

// Helpers: look up ids by single-letter name.
struct Ids {
  explicit Ids(const EventLog& log) : log_(&log) {}
  ActivityId operator()(const std::string& name) const {
    return *log_->dictionary().Find(name);
  }
  const EventLog* log_;
};

TEST(RelationsTest, PaperExample3) {
  // Log {ABCE, ACDE, ADBE}: "B follows A ... but A does not follow B,
  // therefore B depends on A. B follows D ... and D follows B (because it
  // follows C, which follows B), therefore B and D are independent."
  EventLog log = EventLog::FromCompactStrings({"ABCE", "ACDE", "ADBE"});
  Ids id(log);
  Relations rel = Relations::Compute(log);

  EXPECT_TRUE(rel.Follows(id("B"), id("A")));
  EXPECT_FALSE(rel.Follows(id("A"), id("B")));
  EXPECT_TRUE(rel.DependsOn(id("B"), id("A")));

  EXPECT_TRUE(rel.Follows(id("B"), id("D")));
  EXPECT_TRUE(rel.Follows(id("D"), id("B")));  // via C
  EXPECT_TRUE(rel.Independent(id("B"), id("D")));
  EXPECT_FALSE(rel.DependsOn(id("B"), id("D")));
}

TEST(RelationsTest, PaperExample3Extended) {
  // "Let us add ADCE to the above log. Now ... B depends on D. It is
  // because B follows D as before, but ... we do not have D following B via
  // C." (The paper's prose also calls C and D "independent"; under the
  // LITERAL Definition 3 the chain D -> B -> C still makes C follow D —
  // C and D are only *directly* contradictory. We implement the literal
  // definition; Algorithm 2's step 3 embodies the paper's looser direct
  // reading, and its own output graph for this log indeed contains the
  // D -> B -> C path.)
  EventLog log =
      EventLog::FromCompactStrings({"ABCE", "ACDE", "ADBE", "ADCE"});
  Ids id(log);
  Relations rel = Relations::Compute(log);

  // No direct following either way between C and D (both orders observed).
  EXPECT_FALSE(rel.followings_graph().HasEdge(id("C"), id("D")));
  EXPECT_FALSE(rel.followings_graph().HasEdge(id("D"), id("C")));
  // But the literal Definition 3 chain D -> B -> C persists.
  EXPECT_TRUE(rel.Follows(id("C"), id("D")));
  EXPECT_FALSE(rel.Follows(id("D"), id("C")));

  // The paper's headline conclusion holds: B now depends on D.
  EXPECT_TRUE(rel.Follows(id("B"), id("D")));
  EXPECT_FALSE(rel.Follows(id("D"), id("B")));
  EXPECT_TRUE(rel.DependsOn(id("B"), id("D")));
}

TEST(RelationsTest, NonCooccurringActivitiesAreIndependent) {
  EventLog log = EventLog::FromCompactStrings({"AB", "AC"});
  Ids id(log);
  Relations rel = Relations::Compute(log);
  EXPECT_FALSE(rel.Follows(id("B"), id("C")));
  EXPECT_FALSE(rel.Follows(id("C"), id("B")));
  EXPECT_TRUE(rel.Independent(id("B"), id("C")));
}

TEST(RelationsTest, ChainDependencies) {
  EventLog log = EventLog::FromCompactStrings({"ABC", "ABC"});
  Ids id(log);
  Relations rel = Relations::Compute(log);
  EXPECT_TRUE(rel.DependsOn(id("B"), id("A")));
  EXPECT_TRUE(rel.DependsOn(id("C"), id("B")));
  EXPECT_TRUE(rel.DependsOn(id("C"), id("A")));
  EXPECT_FALSE(rel.DependsOn(id("A"), id("C")));
}

TEST(RelationsTest, BothOrdersMakeIndependent) {
  EventLog log = EventLog::FromCompactStrings({"AB", "BA"});
  Ids id(log);
  Relations rel = Relations::Compute(log);
  EXPECT_TRUE(rel.Independent(id("A"), id("B")));
  EXPECT_FALSE(rel.DependsOn(id("A"), id("B")));
  EXPECT_FALSE(rel.DependsOn(id("B"), id("A")));
}

TEST(RelationsTest, OverlappingInstancesBlockFollowing) {
  Execution exec("c");
  exec.Append({0, 0, 10});
  exec.Append({1, 5, 15});
  EventLog log;
  log.dictionary().Intern("A");
  log.dictionary().Intern("B");
  log.AddExecution(std::move(exec));
  Relations rel = Relations::Compute(log);
  EXPECT_FALSE(rel.Follows(1, 0));
  EXPECT_FALSE(rel.Follows(0, 1));
}

TEST(RelationsTest, AllDependenciesSortedAndComplete) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  Relations rel = Relations::Compute(log);
  std::vector<Edge> deps = rel.AllDependencies();
  // A->B, A->C, B->C.
  EXPECT_EQ(deps.size(), 3u);
  EXPECT_TRUE(std::is_sorted(deps.begin(), deps.end()));
}

TEST(RelationsTest, FollowingsGraphIsPrimitiveOnly) {
  EventLog log = EventLog::FromCompactStrings({"ABC"});
  Ids id(log);
  Relations rel = Relations::Compute(log);
  // Primitive followings contain the direct observation A->C too (C starts
  // after A terminates in every co-occurrence).
  EXPECT_TRUE(rel.followings_graph().HasEdge(id("A"), id("C")));
}

}  // namespace
}  // namespace procmine
