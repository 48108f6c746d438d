#include "src/sim/plan.h"

#include <gtest/gtest.h>

#include "src/graph/model_zoo.h"

namespace karma::sim {
namespace {

/// A hand-built plan skeleton with `nb` unit blocks.
Plan skeleton(int nb) {
  Plan plan;
  plan.strategy = "test";
  plan.capacity = 1000;
  for (int b = 0; b < nb; ++b) {
    plan.blocks.push_back({b, b + 1});
    BlockCost c;
    c.fwd_time = 1.0;
    c.bwd_time = 2.0;
    c.act_bytes = 100;
    c.boundary_bytes = 10;
    plan.costs.push_back(c);
  }
  return plan;
}

Op op(OpKind kind, int block) {
  Op o;
  o.kind = kind;
  o.block = block;
  return o;
}

TEST(Plan, OpKindNamesAndStreams) {
  EXPECT_STREQ(op_kind_name(OpKind::kForward), "F");
  EXPECT_STREQ(op_kind_name(OpKind::kSwapIn), "Sin");
  EXPECT_STREQ(op_kind_name(OpKind::kCpuUpdate), "U");
  EXPECT_EQ(stream_of(OpKind::kForward), Stream::kCompute);
  EXPECT_EQ(stream_of(OpKind::kRecompute), Stream::kCompute);
  EXPECT_EQ(stream_of(OpKind::kDeviceUpdate), Stream::kCompute);
  EXPECT_EQ(stream_of(OpKind::kSwapIn), Stream::kH2D);
  EXPECT_EQ(stream_of(OpKind::kSwapOut), Stream::kD2H);
  EXPECT_EQ(stream_of(OpKind::kAllReduce), Stream::kNet);
  EXPECT_EQ(stream_of(OpKind::kCpuUpdate), Stream::kCpu);
}

TEST(Plan, ScheduleStringMatchesPaperNotation) {
  // The Sec. III-F.3 example style: "F1 -> F2||Sout1 -> ...".
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1),
              op(OpKind::kSwapOut, 0)};
  plan.stage_of = {0, 1, 1};
  EXPECT_EQ(plan.schedule_string(), "F1 -> F2||Sout1");
}

TEST(Plan, ValidAllSwapRoundTrip) {
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), op(OpKind::kSwapOut, 1),
              op(OpKind::kSwapIn, 1),  op(OpKind::kBackward, 1),
              op(OpKind::kSwapIn, 0),  op(OpKind::kBackward, 0)};
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(Plan, RejectsForwardOutOfOrder) {
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 1)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, RejectsBackwardOutOfOrder) {
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1),
              op(OpKind::kBackward, 0)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, RejectsBackwardAfterEvictionWithoutSwapIn) {
  Plan plan = skeleton(1);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kBackward, 0)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, RecomputeRepairsEviction) {
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 0),  op(OpKind::kForward, 1),
              op(OpKind::kSwapOut, 1),  op(OpKind::kRecompute, 1),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(Plan, RejectsRecomputeWithoutPredecessorOutput) {
  Plan plan = skeleton(2);
  // Block 0 evicted (activations AND boundary); recompute of 1 has no
  // input.
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1),
              op(OpKind::kSwapOut, 1), op(OpKind::kSwapOut, 0),
              op(OpKind::kRecompute, 1)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, NonRetainingForwardNeedsRecompute) {
  Plan plan = skeleton(1);
  Op f = op(OpKind::kForward, 0);
  f.retains = false;
  plan.ops = {f, op(OpKind::kBackward, 0)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
  plan.ops = {f, op(OpKind::kRecompute, 0), op(OpKind::kBackward, 0)};
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(Plan, RejectsAllReduceWithoutDuration) {
  Plan plan = skeleton(1);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kAllReduce, 0)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
  plan.ops[1].duration = 0.5;
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(Plan, RejectsForwardReferencingFutureOp) {
  Plan plan = skeleton(1);
  Op f = op(OpKind::kForward, 0);
  f.after_op = 3;  // references a future/absent op
  plan.ops = {f};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, RejectsNonContiguousBlocks) {
  Plan plan = skeleton(2);
  plan.blocks[1].first_layer = 5;  // hole between blocks
  plan.ops = {op(OpKind::kForward, 0)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, RejectsBlockIdOutOfRange) {
  Plan plan = skeleton(1);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 3)};
  EXPECT_THROW(validate_plan(plan), std::logic_error);
}

TEST(Plan, MultiIterationStateIsolated) {
  Plan plan = skeleton(1);
  Op f0 = op(OpKind::kForward, 0);
  Op b0 = op(OpKind::kBackward, 0);
  Op f1 = f0, b1 = b0;
  f1.iteration = b1.iteration = 1;
  plan.ops = {f0, b0, f1, b1};
  EXPECT_NO_THROW(validate_plan(plan));
}

TEST(Plan, LayerCostTableBlockCostSane) {
  const graph::Model m = graph::make_vgg16(2);
  const Block blk{0, static_cast<int>(m.num_layers())};
  const BlockCost c = LayerCostTable(m, v100_abci()).cost(blk);
  EXPECT_GT(c.fwd_time, 0.0);
  EXPECT_GT(c.bwd_time, c.fwd_time);  // backward costs more
  EXPECT_GT(c.act_bytes, 0);
  EXPECT_GT(c.param_bytes, 0);
  EXPECT_EQ(c.grad_bytes, c.param_bytes);
  EXPECT_GT(c.boundary_bytes, 0);
  EXPECT_LT(c.boundary_bytes, c.act_bytes);
}

TEST(Plan, BlockCostsAreAdditiveOverSplits) {
  const graph::Model m = graph::make_vgg16(2);
  const int n = static_cast<int>(m.num_layers());
  const LayerCostTable table(m, v100_abci());
  const BlockCost whole = table.cost({0, n});
  const BlockCost a = table.cost({0, n / 2});
  const BlockCost b = table.cost({n / 2, n});
  EXPECT_NEAR(whole.fwd_time, a.fwd_time + b.fwd_time, 1e-9);
  EXPECT_EQ(whole.act_bytes, a.act_bytes + b.act_bytes);
  EXPECT_EQ(whole.param_bytes, a.param_bytes + b.param_bytes);
}

TEST(Plan, UniformBlocksCoverModel) {
  const graph::Model m = graph::make_vgg16(1);
  const auto blocks = uniform_blocks(m, 7);
  EXPECT_EQ(blocks.front().first_layer, 0);
  EXPECT_EQ(blocks.back().last_layer, static_cast<int>(m.num_layers()));
  int expect = 0;
  for (const auto& b : blocks) {
    EXPECT_EQ(b.first_layer, expect);
    EXPECT_LE(b.num_layers(), 7);
    expect = b.last_layer;
  }
  EXPECT_THROW(uniform_blocks(m, 0), std::invalid_argument);
}

}  // namespace
}  // namespace karma::sim
