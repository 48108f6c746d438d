// Algorithm 1: policy assignment and plan emission.
#include "src/core/schedule_gen.h"

#include "src/core/planner.h"

#include <gtest/gtest.h>

#include "src/graph/model_zoo.h"
#include "src/sim/engine.h"
#include "src/util/infeasible.h"

namespace karma::core {
namespace {

using sim::Block;
using sim::BlockCost;

std::vector<BlockCost> unit_costs(int nb, Bytes act) {
  std::vector<BlockCost> costs;
  for (int b = 0; b < nb; ++b) {
    BlockCost c;
    c.fwd_time = 1.0;
    c.bwd_time = 2.0;
    c.act_bytes = act;
    c.boundary_bytes = act / 10;
    costs.push_back(c);
  }
  return costs;
}

std::vector<int> reach_of(const graph::Model& model,
                          const std::vector<Block>& blocks) {
  const sim::LayerCostTable table(model, sim::v100_abci());
  std::vector<int> reach;
  for (const auto& b : blocks) reach.push_back(table.reach(b));
  return reach;
}

std::vector<Block> unit_blocks(int nb) {
  std::vector<Block> blocks;
  for (int b = 0; b < nb; ++b) blocks.push_back({b, b + 1});
  return blocks;
}

TEST(Policies, TailKeptResident) {
  // Budget for ~3 blocks of 100 + headroom of 200: blocks 7,8,9 resident.
  const auto policies =
      capacity_based_policies(unit_blocks(10), unit_costs(10, 100), 500);
  int resident = 0;
  for (std::size_t b = 0; b < policies.size(); ++b) {
    if (policies[b] == BlockPolicy::kResident) ++resident;
  }
  EXPECT_EQ(resident, 3);
  // Residents form a suffix.
  bool seen_resident = false;
  for (const auto p : policies) {
    if (p == BlockPolicy::kResident) seen_resident = true;
    else EXPECT_FALSE(seen_resident) << "resident set must be a suffix";
  }
}

TEST(Policies, EverythingFitsEverythingResident) {
  const auto policies =
      capacity_based_policies(unit_blocks(4), unit_costs(4, 10), 100000);
  for (const auto p : policies) EXPECT_EQ(p, BlockPolicy::kResident);
}

TEST(Policies, NothingFitsEverythingSwapped) {
  const auto policies =
      capacity_based_policies(unit_blocks(4), unit_costs(4, 100), 250);
  for (const auto p : policies) EXPECT_EQ(p, BlockPolicy::kSwap);
}

TEST(Policies, NameStrings) {
  EXPECT_STREQ(block_policy_name(BlockPolicy::kResident), "resident");
  EXPECT_STREQ(block_policy_name(BlockPolicy::kSwap), "swap");
  EXPECT_STREQ(block_policy_name(BlockPolicy::kRecompute), "recompute");
}

TEST(LongSkips, UnetContractingPathDetected) {
  const graph::Model unet = graph::make_unet(1);
  // Partition at layer granularity (U-Net has almost no clean cuts, so
  // the planner's fallback uses every position — see
  // candidate_cut_points); contracting-path blocks must carry the mask.
  const auto blocks = sim::uniform_blocks(unet, 6);
  const auto mask = blocks_with_long_skips(blocks, reach_of(unet, blocks));
  int flagged = 0;
  for (bool m : mask) flagged += m ? 1 : 0;
  EXPECT_GT(flagged, 0);
  // The final block (end of expansive path) has no outgoing skips.
  EXPECT_FALSE(mask.back());
}

TEST(LongSkips, UnetSparseCleanCutsTriggerFallback) {
  const graph::Model unet = graph::make_unet(1);
  const auto clean = clean_cut_points(unet);
  // The nested skips pin the whole middle into one un-cuttable span...
  int max_gap = 0;
  for (std::size_t i = 1; i < clean.size(); ++i)
    max_gap = std::max(max_gap, clean[i] - clean[i - 1]);
  EXPECT_GT(max_gap, static_cast<int>(unet.num_layers()) / 2);
  // ...so the planner falls back to every position.
  const auto candidates = candidate_cut_points(unet);
  EXPECT_EQ(candidates.size(), unet.num_layers() + 1);
}

TEST(LongSkips, ResnetKeepsCleanCuts) {
  // ResNets have dense clean cuts; no fallback happens.
  const graph::Model rn = graph::make_resnet50(1);
  EXPECT_EQ(candidate_cut_points(rn), clean_cut_points(rn));
}

TEST(LongSkips, ChainModelHasNone) {
  const graph::Model vgg = graph::make_vgg16(1);
  const auto blocks = sim::uniform_blocks(vgg, 5);
  for (bool m : blocks_with_long_skips(blocks, reach_of(vgg, blocks)))
    EXPECT_FALSE(m);
}

// ---- End-to-end plan emission on a real model ----

class PlanEmission : public ::testing::Test {
 protected:
  graph::Model model_ = graph::make_vgg16(48);  // beyond 16 GiB in-core
  sim::DeviceSpec device_ = sim::v100_abci();
};

TEST_F(PlanEmission, AllSwapPlanValidatesAndRuns) {
  const auto blocks = sim::uniform_blocks(model_, 4);
  const std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  const sim::Plan plan =
      build_training_plan(model_, device_, blocks, policies, "all-swap");
  EXPECT_NO_THROW(sim::validate_plan(plan));
  const auto trace = sim::Engine(device_).run(plan);
  EXPECT_GT(trace.makespan, 0.0);
  EXPECT_LE(trace.peak_resident,
            device_.memory_capacity + plan.baseline_resident);
}

TEST_F(PlanEmission, MixedPoliciesRun) {
  const auto blocks = sim::uniform_blocks(model_, 4);
  std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  policies.back() = BlockPolicy::kResident;
  for (std::size_t b = 1; b + 2 < policies.size(); b += 3)
    policies[b] = BlockPolicy::kRecompute;
  const sim::Plan plan =
      build_training_plan(model_, device_, blocks, policies, "mixed");
  const auto trace = sim::Engine(device_).run(plan);
  EXPECT_GT(trace.makespan, 0.0);
}

TEST_F(PlanEmission, ScheduleStringShape) {
  // First stage must be a lone forward, F1 (paper's Sec. III-F.3 form).
  const auto blocks = sim::uniform_blocks(model_, 8);
  std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  policies.back() = BlockPolicy::kResident;
  const sim::Plan plan =
      build_training_plan(model_, device_, blocks, policies, "s");
  const std::string sched = plan.schedule_string();
  EXPECT_EQ(sched.rfind("F1", 0), 0u) << sched;
  EXPECT_NE(sched.find("Sout1"), std::string::npos);
  EXPECT_NE(sched.find("||"), std::string::npos);  // overlap exists
}

TEST_F(PlanEmission, RejectsWeightsBeyondCapacity) {
  // A transformer whose weights exceed the device must be rejected by the
  // single-GPU builder (the distributed builder handles that regime).
  const graph::Model big =
      graph::make_transformer(graph::megatron_config(4), 1);
  const auto blocks = sim::uniform_blocks(big, 64);
  const std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  EXPECT_THROW(build_training_plan(big, device_, blocks, policies, "x"),
               karma::InfeasibleError);
}

TEST_F(PlanEmission, InCorePlanHasNoSwaps) {
  const graph::Model small = graph::make_vgg16(4);
  const auto blocks = sim::uniform_blocks(small, 6);
  const sim::Plan plan = build_incore_plan(small, device_, blocks);
  for (const auto& o : plan.ops) {
    EXPECT_NE(o.kind, sim::OpKind::kSwapIn);
    EXPECT_NE(o.kind, sim::OpKind::kSwapOut);
    EXPECT_NE(o.kind, sim::OpKind::kRecompute);
  }
  const auto trace = sim::Engine(device_).run(plan);
  EXPECT_DOUBLE_EQ(trace.occupancy(), 1.0);
}

TEST_F(PlanEmission, SizeMismatchRejected) {
  const auto blocks = sim::uniform_blocks(model_, 4);
  const std::vector<BlockPolicy> policies(blocks.size() + 1,
                                          BlockPolicy::kSwap);
  EXPECT_THROW(
      build_training_plan(model_, device_, blocks, policies, "bad"),
      std::invalid_argument);
}

TEST_F(PlanEmission, EveryBlockForwardAndBackwardExactlyOnce) {
  const auto blocks = sim::uniform_blocks(model_, 3);
  std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  policies.back() = BlockPolicy::kResident;
  const sim::Plan plan =
      build_training_plan(model_, device_, blocks, policies, "once");
  std::vector<int> fwd(blocks.size(), 0), bwd(blocks.size(), 0);
  for (const auto& o : plan.ops) {
    if (o.kind == sim::OpKind::kForward) ++fwd[static_cast<std::size_t>(o.block)];
    if (o.kind == sim::OpKind::kBackward) ++bwd[static_cast<std::size_t>(o.block)];
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    EXPECT_EQ(fwd[b], 1) << "block " << b;
    EXPECT_EQ(bwd[b], 1) << "block " << b;
  }
}

}  // namespace
}  // namespace karma::core
