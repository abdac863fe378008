#include "workflow/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "output_of.h"

namespace procmine {
namespace {

ProcessDefinition DiamondDef() {
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"S", "B"}, {"A", "E"}, {"B", "E"}});
  return ProcessDefinition(std::move(g));
}

std::vector<std::string> NameSequence(const ProcessDefinition& def,
                                      const Execution& exec) {
  std::vector<std::string> names;
  for (ActivityId a : exec.Sequence()) names.push_back(def.name(a));
  return names;
}

TEST(EngineTest, RunsDiamondToCompletion) {
  ProcessDefinition def = DiamondDef();
  Engine engine(&def);
  Rng rng(1);
  auto exec = engine.Run("case1", &rng);
  ASSERT_TRUE(exec.ok());
  std::vector<std::string> names = NameSequence(def, *exec);
  ASSERT_EQ(names.size(), 4u);  // all conditions true: everything runs
  EXPECT_EQ(names.front(), "S");
  EXPECT_EQ(names.back(), "E");
}

TEST(EngineTest, BothInterleavingsOccur) {
  ProcessDefinition def = DiamondDef();
  Engine engine(&def);
  std::set<std::string> orders;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    std::string flat;
    for (const std::string& n : NameSequence(def, *exec)) flat += n;
    orders.insert(flat);
  }
  EXPECT_TRUE(orders.count("SABE") > 0);
  EXPECT_TRUE(orders.count("SBAE") > 0);
  EXPECT_EQ(orders.size(), 2u);
}

TEST(EngineTest, ExclusiveConditionsPickOneBranch) {
  ProcessDefinition def = DiamondDef();
  NodeId s = *def.process_graph().FindActivity("S");
  NodeId a = *def.process_graph().FindActivity("A");
  NodeId b = *def.process_graph().FindActivity("B");
  def.SetOutputSpec(s, OutputSpec::Uniform(1, 0, 99));
  def.SetCondition(s, a, Condition::Compare(0, CmpOp::kLt, 50));
  def.SetCondition(s, b, Condition::Compare(0, CmpOp::kGe, 50));
  Engine engine(&def);
  bool saw_a = false, saw_b = false;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    ASSERT_EQ(exec->size(), 3u);  // S, one branch, E
    bool has_a = exec->Contains(a);
    bool has_b = exec->Contains(b);
    EXPECT_NE(has_a, has_b);  // exactly one branch
    saw_a |= has_a;
    saw_b |= has_b;
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(EngineTest, AndJoinRequiresAllIncoming) {
  ProcessDefinition def = DiamondDef();
  NodeId s = *def.process_graph().FindActivity("S");
  NodeId a = *def.process_graph().FindActivity("A");
  NodeId e = *def.process_graph().FindActivity("E");
  def.SetJoin(e, JoinKind::kAnd);
  def.SetOutputSpec(s, OutputSpec::Uniform(1, 0, 99));
  // A fires only half the time; with an AND join at E the execution fails
  // when A is skipped, and the engine retries until both branches fire.
  def.SetCondition(s, a, Condition::Compare(0, CmpOp::kLt, 50));
  Engine engine(&def);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->size(), 4u);  // retried until all four ran
  }
}

TEST(EngineTest, DeadPathEliminationPropagatesFalsity) {
  // S -> A -> B -> E with S->A false: nothing but S runs => sink unreachable
  // => Run must fail after retries.
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"A", "B"}, {"B", "E"}});
  ProcessDefinition def{std::move(g)};
  NodeId s = *def.process_graph().FindActivity("S");
  NodeId a = *def.process_graph().FindActivity("A");
  def.SetCondition(s, a, Condition::False());
  EngineOptions options;
  options.max_attempts = 3;
  Engine engine(&def, options);
  Rng rng(1);
  auto exec = engine.Run("c", &rng);
  EXPECT_FALSE(exec.ok());
  EXPECT_TRUE(exec.status().IsFailedPrecondition());
}

TEST(EngineTest, RecordsOutputsOnInstances) {
  ProcessDefinition def = DiamondDef();
  NodeId s = *def.process_graph().FindActivity("S");
  def.SetOutputSpec(s, OutputSpec::Uniform(2, 5, 5));  // deterministic {5,5}
  Engine engine(&def);
  Rng rng(3);
  auto exec = engine.Run("c", &rng);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(OutputOf(*exec, 0), (std::vector<int64_t>{5, 5}));
}

TEST(EngineTest, RecordOutputsFalseLeavesEmpty) {
  ProcessDefinition def = DiamondDef();
  NodeId s = *def.process_graph().FindActivity("S");
  def.SetOutputSpec(s, OutputSpec::Uniform(2, 5, 5));
  EngineOptions options;
  options.record_outputs = false;
  Engine engine(&def, options);
  Rng rng(3);
  auto exec = engine.Run("c", &rng);
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(OutputOf(*exec, 0).empty());
}

TEST(EngineTest, ParallelOverlapProducesOverlappingIntervals) {
  ProcessDefinition def = DiamondDef();
  EngineOptions options;
  options.parallel_overlap = true;
  Engine engine(&def, options);
  Rng rng(5);
  auto exec = engine.Run("c", &rng);
  ASSERT_TRUE(exec.ok());
  ASSERT_EQ(exec->size(), 4u);
  // A and B are ready together; their intervals must overlap.
  size_t ia = 1, ib = 2;
  EXPECT_FALSE(exec->TerminatesBefore(ia, ib));
  EXPECT_FALSE(exec->TerminatesBefore(ib, ia));
  // S still strictly precedes both, E strictly follows.
  EXPECT_TRUE(exec->TerminatesBefore(0, 1));
  EXPECT_TRUE(exec->TerminatesBefore(2, 3));
}

TEST(EngineTest, TokenFireExecutesLoops) {
  // S -> A -> B -> E with loop B -> A taken while o[0] < 50.
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"A", "B"}, {"B", "A"}, {"B", "E"}});
  ProcessDefinition def{std::move(g)};
  NodeId a = *def.process_graph().FindActivity("A");
  NodeId b = *def.process_graph().FindActivity("B");
  NodeId e = *def.process_graph().FindActivity("E");
  def.SetOutputSpec(b, OutputSpec::Uniform(1, 0, 99));
  def.SetCondition(b, a, Condition::Compare(0, CmpOp::kLt, 50));
  def.SetCondition(b, e, Condition::Compare(0, CmpOp::kGe, 50));
  EngineOptions options;
  options.mode = ExecutionMode::kTokenFire;
  Engine engine(&def, options);

  bool saw_repeat = false;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed);
    auto exec = engine.Run("c", &rng);
    ASSERT_TRUE(exec.ok());
    EXPECT_EQ(exec->Sequence().back(), e);
    if (exec->CountOf(a) > 1) saw_repeat = true;
  }
  EXPECT_TRUE(saw_repeat);  // the loop body re-executed at least once
}

TEST(EngineTest, TokenFireRespectsMaxSteps) {
  // Unconditional loop: must hit the max_steps guard.
  ProcessGraph g = ProcessGraph::FromNamedEdges(
      {{"S", "A"}, {"A", "A2"}, {"A2", "A"}, {"A2", "E"}});
  ProcessDefinition def{std::move(g)};
  NodeId a2 = *def.process_graph().FindActivity("A2");
  NodeId e = *def.process_graph().FindActivity("E");
  def.SetCondition(a2, e, Condition::False());
  EngineOptions options;
  options.mode = ExecutionMode::kTokenFire;
  options.max_steps = 100;
  Engine engine(&def, options);
  Rng rng(1);
  auto exec = engine.Run("c", &rng);
  EXPECT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().code(), StatusCode::kInternal);
}

TEST(EngineTest, GenerateLogAlignsIdsWithDefinition) {
  ProcessDefinition def = DiamondDef();
  Engine engine(&def);
  auto log = engine.GenerateLog(20, /*seed=*/9);
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->num_executions(), 20u);
  EXPECT_EQ(log->num_activities(), 4);
  for (NodeId v = 0; v < def.num_activities(); ++v) {
    EXPECT_EQ(log->dictionary().Name(v), def.name(v));
  }
}

TEST(EngineTest, GenerateLogIsDeterministicPerSeed) {
  ProcessDefinition def = DiamondDef();
  Engine engine(&def);
  auto log1 = engine.GenerateLog(10, 42);
  auto log2 = engine.GenerateLog(10, 42);
  ASSERT_TRUE(log1.ok());
  ASSERT_TRUE(log2.ok());
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(log1->execution(i).Sequence(), log2->execution(i).Sequence());
  }
  auto log3 = engine.GenerateLog(10, 43);
  ASSERT_TRUE(log3.ok());
  bool any_diff = false;
  for (size_t i = 0; i < 10; ++i) {
    any_diff |= log1->execution(i).Sequence() != log3->execution(i).Sequence();
  }
  EXPECT_TRUE(any_diff);
}

TEST(EngineTest, InstanceNamesCarryPrefix) {
  ProcessDefinition def = DiamondDef();
  Engine engine(&def);
  auto log = engine.GenerateLog(2, 1, "order");
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log->execution(0).name(), "order_000000");
  EXPECT_EQ(log->execution(1).name(), "order_000001");
}

}  // namespace
}  // namespace procmine
