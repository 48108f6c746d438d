// Training-script generation (workflow step 5 / Sec. III-H placement
// rules): prefetches precede use, swap-ins synchronize, recomputes wrap
// re-forwards.
#include "src/core/codegen.h"

#include <gtest/gtest.h>

#include "src/core/planner.h"
#include "src/graph/model_zoo.h"

namespace karma::core {
namespace {

sim::Plan karma_plan() {
  // Swap-only planning so the generated script is guaranteed to contain
  // prefetch calls (the recompute wrapping is asserted separately).
  const graph::Model model = graph::make_resnet50(512);
  PlannerOptions options;
  options.anneal_iterations = 0;
  options.enable_recompute = false;
  return KarmaPlanner(model, sim::v100_abci(), options).plan().schedule;
}

TEST(Codegen, EmitsValidStructure) {
  const std::string script = generate_training_script(karma_plan());
  EXPECT_NE(script.find("def karma_training_step(model"), std::string::npos);
  EXPECT_NE(script.find("import torch"), std::string::npos);
  EXPECT_NE(script.find(".forward(x)"), std::string::npos);
  EXPECT_NE(script.find(".backward(grad)"), std::string::npos);
  EXPECT_NE(script.find("return x"), std::string::npos);
}

TEST(Codegen, SwapInAlwaysFollowedBySynchronize) {
  // Sec. III-H: "we also synchronize after the prefetch to make sure the
  // data is ready ... or we would risk a significant penalty from page
  // faulting".
  const std::string script = generate_training_script(karma_plan());
  std::size_t pos = 0;
  int prefetches = 0;
  while ((pos = script.find("prefetch_to_device", pos)) != std::string::npos) {
    const std::size_t line_end = script.find('\n', pos);
    const std::size_t next = script.find("synchronize", line_end);
    ASSERT_NE(next, std::string::npos);
    // The synchronize must be the very next statement.
    const std::size_t next_line = script.find('\n', line_end + 1);
    EXPECT_LE(next, next_line);
    ++prefetches;
    pos = line_end;
  }
  EXPECT_GT(prefetches, 0);
}

TEST(Codegen, RecomputeWrappedInRematerialization) {
  // Build a plan with a recompute block to assert the wrapping.
  const graph::Model model = graph::make_resnet200(12);
  PlannerOptions options;
  options.anneal_iterations = 0;
  const auto result = KarmaPlanner(model, sim::v100_abci(), options).plan();
  bool has_recompute = false;
  for (const auto& op : result.schedule.ops)
    has_recompute |= op.kind == sim::OpKind::kRecompute;
  if (!has_recompute) GTEST_SKIP() << "plan has no recompute blocks";
  const std::string script = generate_training_script(result.schedule);
  EXPECT_NE(script.find("recompute_forward()"), std::string::npos);
}

TEST(Codegen, DeterministicOutput) {
  const sim::Plan plan = karma_plan();
  EXPECT_EQ(generate_training_script(plan), generate_training_script(plan));
}

TEST(Codegen, CustomModelVariable) {
  CodegenOptions options;
  options.model_var = "net";
  const std::string script =
      generate_training_script(karma_plan(), options);
  EXPECT_NE(script.find("def karma_training_step(net"), std::string::npos);
  EXPECT_NE(script.find("net.blocks[0].forward"), std::string::npos);
}

TEST(Codegen, RejectsUnknownFramework) {
  CodegenOptions options;
  options.framework = "tensorflow";  // define-and-run is out of scope
  EXPECT_THROW(generate_training_script(karma_plan(), options),
               std::invalid_argument);
}

TEST(Codegen, DistributedOpsEmitted) {
  // A hand-built plan with the distributed op kinds.
  sim::Plan plan;
  plan.strategy = "dp";
  plan.blocks = {{0, 1}};
  plan.costs.resize(1);
  plan.costs[0].act_bytes = 10;
  plan.capacity = 100;
  sim::Op f;
  f.kind = sim::OpKind::kForward;
  sim::Op b;
  b.kind = sim::OpKind::kBackward;
  sim::Op ar;
  ar.kind = sim::OpKind::kAllReduce;
  ar.duration = 0.1;
  sim::Op up;
  up.kind = sim::OpKind::kCpuUpdate;
  up.duration = 0.1;
  plan.ops = {f, b, ar, up};
  const std::string script = generate_training_script(plan);
  EXPECT_NE(script.find("all_reduce_phase"), std::string::npos);
  EXPECT_NE(script.find("cpu_step"), std::string::npos);
}

}  // namespace
}  // namespace karma::core
