// Structural invariants of the 5-stage distributed pipeline's emitted op
// sequence (Fig. 3) — the ordering guarantees the paper's prose promises,
// checked on the Plan IR itself rather than end-to-end timings.
#include <gtest/gtest.h>

#include <map>

#include "src/core/distributed.h"
#include "src/graph/model_zoo.h"

namespace karma::core {
namespace {

PlanResult weight_swapped_plan() {
  const graph::Model model =
      graph::make_transformer(graph::megatron_config(2), 4);  // 2.5B: must swap
  DistributedOptions options;
  options.num_gpus = 64;
  options.iterations = 2;
  options.planner.anneal_iterations = 0;
  return plan_data_parallel(model, sim::v100_abci(), options);
}

PlanResult weight_resident_plan() {
  DistributedOptions options;
  options.num_gpus = 16;
  options.iterations = 2;
  options.planner.anneal_iterations = 0;
  return plan_data_parallel(graph::make_resnet50(128), sim::v100_abci(),
                            options);
}

/// Index of the first op matching (kind, block, iteration), or -1.
int find_op(const sim::Plan& plan, sim::OpKind kind, int block, int iter) {
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const sim::Op& op = plan.ops[i];
    if (op.kind == kind && op.block == block && op.iteration == iter)
      return static_cast<int>(i);
  }
  return -1;
}

TEST(PipelineStructure, WeightSwapInPrecedesEveryForward) {
  const auto r = weight_swapped_plan();
  for (int it = 0; it < 2; ++it) {
    for (int b = 0; b < r.schedule.num_blocks(); ++b) {
      const int fwd = find_op(r.schedule, sim::OpKind::kForward, b, it);
      const int win = find_op(r.schedule, sim::OpKind::kSwapIn, b, it);
      ASSERT_GE(fwd, 0);
      ASSERT_GE(win, 0) << "no weight swap-in for block " << b;
      EXPECT_LT(win, fwd) << "block " << b << " iter " << it;
    }
  }
}

TEST(PipelineStructure, GradientSwapOutFollowsBackward) {
  // Stage 3: every backward is followed by a gradient swap-out of the
  // same block, before any later backward.
  const auto r = weight_swapped_plan();
  for (int b = 0; b < r.schedule.num_blocks(); ++b) {
    const int bwd = find_op(r.schedule, sim::OpKind::kBackward, b, 0);
    ASSERT_GE(bwd, 0);
    // Find the first swap-out of b after its backward.
    int gout = -1;
    for (std::size_t i = static_cast<std::size_t>(bwd) + 1;
         i < r.schedule.ops.size(); ++i) {
      const sim::Op& op = r.schedule.ops[i];
      if (op.iteration != 0) break;
      if (op.kind == sim::OpKind::kSwapOut && op.block == b) {
        gout = static_cast<int>(i);
        break;
      }
      if (op.kind == sim::OpKind::kBackward) break;  // next backward first?
    }
    EXPECT_GE(gout, 0) << "no gradient swap-out right after B(" << b << ")";
  }
}

TEST(PipelineStructure, EveryBlockUpdatedOncePerIteration) {
  for (const auto& r : {weight_swapped_plan(), weight_resident_plan()}) {
    std::map<std::pair<int, int>, int> updates;  // (iter, block) -> count
    for (const auto& op : r.schedule.ops)
      if (op.kind == sim::OpKind::kCpuUpdate)
        ++updates[{op.iteration, op.block}];
    for (int it = 0; it < 2; ++it)
      for (int b = 0; b < r.schedule.num_blocks(); ++b)
        EXPECT_EQ((updates[{it, b}]), 1)
            << "iter " << it << " block " << b;
  }
}

TEST(PipelineStructure, UpdatesGatedOnTheirPhaseAllReduce) {
  const auto r = weight_swapped_plan();
  for (std::size_t i = 0; i < r.schedule.ops.size(); ++i) {
    const sim::Op& op = r.schedule.ops[i];
    if (op.kind != sim::OpKind::kCpuUpdate) continue;
    ASSERT_GE(op.after_op, 0) << "update without AllReduce gate";
    EXPECT_EQ(r.schedule.ops[static_cast<std::size_t>(op.after_op)].kind,
              sim::OpKind::kAllReduce);
  }
}

TEST(PipelineStructure, SecondIterationForwardWaitsForUpdatedWeights) {
  // Fig. 3's point: iteration 2's swap-ins carry the *updated* weights;
  // the per-block chain therefore runs U(b) -> Sin_w(b) -> F(b).
  const auto r = weight_resident_plan();
  for (int b = 0; b < r.schedule.num_blocks(); ++b) {
    const int up = find_op(r.schedule, sim::OpKind::kCpuUpdate, b, 0);
    const int refresh = find_op(r.schedule, sim::OpKind::kSwapIn, b, 1);
    const int fwd2 = find_op(r.schedule, sim::OpKind::kForward, b, 1);
    ASSERT_GE(up, 0);
    ASSERT_GE(refresh, 0);
    ASSERT_GE(fwd2, 0);
    EXPECT_LT(up, refresh);
    EXPECT_LT(refresh, fwd2);
    // And the engine honored the chain in time.
    EXPECT_GE(r.trace.records[static_cast<std::size_t>(refresh)].start,
              r.trace.records[static_cast<std::size_t>(up)].end - 1e-9);
  }
}

TEST(PipelineStructure, PhasedExchangeCoversAllGradients) {
  const auto r = weight_swapped_plan();
  std::vector<int> covered(r.schedule.blocks.size(), 0);
  for (const auto& phase : r.exchange->phases)
    for (int b : phase.blocks) ++covered[static_cast<std::size_t>(b)];
  for (std::size_t b = 0; b < covered.size(); ++b)
    EXPECT_EQ(covered[b], 1) << "block " << b;
}

TEST(PipelineStructure, WeightsDroppedAfterForwardInSwapRegime) {
  // The forward-phase weight drop (free, zero-duration swap-out) must
  // exist per block so parameters never accumulate on the device.
  const auto r = weight_swapped_plan();
  ASSERT_FALSE(r.weights_resident);
  for (int b = 0; b < r.schedule.num_blocks(); ++b) {
    const int fwd = find_op(r.schedule, sim::OpKind::kForward, b, 0);
    bool dropped = false;
    for (std::size_t i = static_cast<std::size_t>(fwd) + 1;
         i < r.schedule.ops.size(); ++i) {
      const sim::Op& op = r.schedule.ops[i];
      if (op.kind == sim::OpKind::kSwapOut && op.block == b &&
          op.bytes == 0 && op.free > 0) {
        dropped = true;
        break;
      }
      if (op.kind == sim::OpKind::kForward && op.block == b + 1) break;
    }
    EXPECT_TRUE(dropped) << "block " << b;
  }
}

}  // namespace
}  // namespace karma::core
