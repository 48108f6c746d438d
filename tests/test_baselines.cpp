// The Fig. 5 strategy set: feasibility and qualitative ordering.
#include "src/baselines/strategies.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"

namespace karma::baselines {
namespace {

const sim::DeviceSpec kDevice = sim::v100_abci();

TEST(Baselines, InCoreFeasibilityMatchesFootprint) {
  EXPECT_TRUE(plan_incore(graph::make_resnet200(4), kDevice).has_value());
  EXPECT_FALSE(plan_incore(graph::make_resnet200(12), kDevice).has_value());
}

TEST(Baselines, AllOocStrategiesHandleResnet200OutOfCore) {
  const graph::Model m = graph::make_resnet200(12);
  ASSERT_GT(graph::in_core_footprint(m), kDevice.memory_capacity);
  EXPECT_TRUE(plan_vdnnpp(m, kDevice).has_value());
  EXPECT_TRUE(plan_ooc_cudnn(m, kDevice).has_value());
  EXPECT_TRUE(plan_superneurons(m, kDevice).has_value());
  EXPECT_TRUE(plan_checkpointing(m, kDevice).has_value());
  EXPECT_TRUE(plan_checkmate(m, kDevice).has_value());
  EXPECT_TRUE(plan_karma(m, kDevice).has_value());
  EXPECT_TRUE(plan_karma_recompute(m, kDevice).has_value());
}

TEST(Baselines, KarmaRecomputeWinsOnResnet200) {
  // The paper's headline: KARMA w/ recompute beats every other method.
  const graph::Model m = graph::make_resnet200(12);
  const double karma =
      plan_karma_recompute(m, kDevice)->iteration_time;
  for (const auto& entry : all_strategies()) {
    if (std::string(entry.name) == "KARMA+recompute" ||
        std::string(entry.name) == "in-core")
      continue;
    const auto result = entry.plan(m, kDevice);
    if (!result) continue;
    EXPECT_LE(karma, result->iteration_time * 1.0001)
        << "KARMA+recompute slower than " << entry.name;
  }
}

TEST(Baselines, KarmaBeatsEagerSwappers) {
  // Fig. 2's claim, quantified: capacity-based beats vDNN++'s eager
  // strategy, which beats ooc_cuDNN's synchronous per-layer swaps.
  const graph::Model m = graph::make_vgg16(64);
  const double karma = plan_karma(m, kDevice)->iteration_time;
  const double vdnn = plan_vdnnpp(m, kDevice)->iteration_time;
  const double ooc = plan_ooc_cudnn(m, kDevice)->iteration_time;
  EXPECT_LT(karma, vdnn * 1.0001);
  EXPECT_LE(vdnn, ooc * 1.0001);
}

TEST(Baselines, PeakMemoryWithinDevice) {
  const graph::Model m = graph::make_resnet200(12);
  for (const auto& entry : all_strategies()) {
    const auto result = entry.plan(m, kDevice);
    if (!result) continue;
    EXPECT_LE(result->trace.peak_resident, kDevice.memory_capacity)
        << entry.name;
  }
}

TEST(Baselines, CheckpointingUsesNoSwaps) {
  const auto result = plan_checkpointing(graph::make_resnet200(12), kDevice);
  ASSERT_TRUE(result);
  for (const auto& op : result->schedule.ops) {
    EXPECT_NE(op.kind, sim::OpKind::kSwapIn);
    EXPECT_NE(op.kind, sim::OpKind::kSwapOut);
  }
}

TEST(Baselines, CheckmateAtLeastAsGoodAsSqrtN) {
  // Checkmate searches checkpoint densities; sqrt(N) is one point in its
  // search space.
  const graph::Model m = graph::make_resnet200(12);
  const double checkmate = plan_checkmate(m, kDevice)->iteration_time;
  const double sqrt_n = plan_checkpointing(m, kDevice)->iteration_time;
  EXPECT_LE(checkmate, sqrt_n * 1.0001);
}

TEST(Baselines, SuperNeuronsMixesSwapAndRecompute) {
  const auto result = plan_superneurons(graph::make_resnet200(12), kDevice);
  ASSERT_TRUE(result);
  bool has_swap = false, has_recompute = false;
  for (const auto& op : result->schedule.ops) {
    has_swap |= op.kind == sim::OpKind::kSwapOut;
    has_recompute |= op.kind == sim::OpKind::kRecompute;
  }
  EXPECT_TRUE(has_swap);
  EXPECT_TRUE(has_recompute);
}

TEST(Baselines, VdnnSwapsEverythingIncludingTail) {
  // The Fig. 2a inefficiency: the last block is swapped out then
  // immediately needed.
  const auto result = plan_vdnnpp(graph::make_vgg16(64), kDevice);
  ASSERT_TRUE(result);
  const int nb = result->schedule.num_blocks();
  bool tail_swapped = false;
  for (const auto& op : result->schedule.ops)
    if (op.kind == sim::OpKind::kSwapOut && op.block == nb - 1)
      tail_swapped = true;
  EXPECT_TRUE(tail_swapped);
}

TEST(Baselines, StrategyTableComplete) {
  const auto& entries = all_strategies();
  EXPECT_EQ(entries.size(), 9u);
  EXPECT_STREQ(entries.front().name, "in-core");
  EXPECT_STREQ(entries.back().name, "KARMA+recompute");
}

TEST(Baselines, UnifiedMemorySlowerThanDedicatedOoc) {
  // The Sec. II-A premise for excluding UM from the comparison: demand
  // paging underperforms every dedicated out-of-core method.
  const graph::Model m = graph::make_vgg16(64);
  const auto um = plan_um_naive(m, kDevice);
  const auto ooc = plan_ooc_cudnn(m, kDevice);
  const auto karma = plan_karma_recompute(m, kDevice);
  ASSERT_TRUE(um && ooc && karma);
  EXPECT_GT(um->iteration_time, ooc->iteration_time);
  EXPECT_GT(um->iteration_time, 2.0 * karma->iteration_time);
}

// Geomean speedup across the Fig. 5 models at the paper's second batch
// size: KARMA+recompute vs the best non-KARMA OOC method should show a
// clear aggregate win (the paper reports 1.52x on their hardware).
TEST(Baselines, AggregateSpeedupOverSota) {
  struct Case {
    graph::Model model;
  };
  const std::vector<graph::Model> models = {
      graph::make_resnet50(384), graph::make_vgg16(96),
      graph::make_resnet200(12), graph::make_wrn28_10(768)};
  double log_sum = 0.0;
  int counted = 0;
  for (const auto& m : models) {
    const auto karma = plan_karma_recompute(m, kDevice);
    ASSERT_TRUE(karma) << m.name();
    double best_other = 1e100;
    using PlanFn = std::optional<PlanResult> (*)(const graph::Model&,
                                                 const sim::DeviceSpec&);
    for (PlanFn fn :
         {PlanFn{&plan_vdnnpp}, PlanFn{&plan_ooc_cudnn},
          PlanFn{&plan_superneurons}, PlanFn{&plan_checkmate}}) {
      const auto r = fn(m, kDevice);
      if (r) best_other = std::min(best_other, r->iteration_time);
    }
    ASSERT_LT(best_other, 1e99) << m.name();
    log_sum += std::log(best_other / karma->iteration_time);
    ++counted;
  }
  const double geomean = std::exp(log_sum / counted);
  EXPECT_GT(geomean, 1.0);  // KARMA wins on aggregate
}

}  // namespace
}  // namespace karma::baselines
