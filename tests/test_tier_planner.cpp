// Tier-aware planning end to end: the tiered path is a strict superset of
// the seed two-tier planner, and hosts too small for the working set
// produce valid NVMe-spilling plans.
#include <gtest/gtest.h>

#include "src/core/planner.h"
#include "src/core/schedule_gen.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/sim/trace_check.h"
#include "src/tier/spill.h"
#include "src/util/infeasible.h"

namespace karma::core {
namespace {

PlannerOptions fast_options(bool recompute) {
  PlannerOptions o;
  o.enable_recompute = recompute;
  o.anneal_iterations = 30;
  return o;
}

TEST(TieredPolicies, UnboundedHostMatchesSeedPolicies) {
  const graph::Model m = graph::make_resnet50(512);
  const sim::DeviceSpec device = sim::v100_abci();
  const auto blocks = sim::uniform_blocks(m, 20);
  const auto costs = sim::LayerCostTable(m, device).costs(blocks);
  const Bytes budget = device.memory_capacity / 2;
  const auto seed = capacity_based_policies(blocks, costs, budget);
  const auto tiered = tiered_policies(blocks, costs, budget,
                                      sim::hierarchy_of(device));
  EXPECT_EQ(seed, tiered);
}

TEST(TieredPolicies, HostOverflowRoutesEarlyBlocksToNvme) {
  // Three swapped blocks of 100 B through a 150 B host: the latest blocks
  // (needed soonest in backward) keep DRAM, the earliest spill to NVMe.
  std::vector<sim::Block> blocks = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  std::vector<sim::BlockCost> costs(4);
  for (auto& c : costs) c.act_bytes = 100;
  tier::TierSpec host;
  host.capacity = 150;
  host.read_bw = host.write_bw = 1.0;
  tier::TierSpec nvme;
  nvme.capacity = 1000;
  nvme.read_bw = nvme.write_bw = 1.0;
  const auto hierarchy = tier::three_tier(1000, host, nvme);
  // Budget keeps only the tail block resident (needs 2*max_act headroom);
  // of the three swapped blocks, the host (150 B) holds exactly one.
  const auto policies = tiered_policies(blocks, costs, 300, hierarchy);
  ASSERT_EQ(policies.size(), 4u);
  EXPECT_EQ(policies[0], BlockPolicy::kSwapNvme);  // most prefetch slack
  EXPECT_EQ(policies[1], BlockPolicy::kSwapNvme);
  EXPECT_EQ(policies[2], BlockPolicy::kSwap);      // host-first for late
  EXPECT_EQ(policies[3], BlockPolicy::kResident);  // tail stays on device
}

TEST(ScheduleGen, NvmeSwapOpsCarryTierTags) {
  const graph::Model m = graph::make_vgg16(8);
  sim::DeviceSpec d = sim::v100_abci_nvme();
  const auto blocks = sim::uniform_blocks(m, 6);
  std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kResident);
  policies[0] = BlockPolicy::kSwapNvme;
  policies[1] = BlockPolicy::kSwap;
  const sim::Plan plan =
      build_training_plan(m, d, blocks, policies, "tier-test");
  ASSERT_TRUE(plan.hierarchy.has_value());
  int nvme_swaps = 0, host_swaps = 0;
  for (const auto& op : plan.ops) {
    if (op.kind != sim::OpKind::kSwapOut && op.kind != sim::OpKind::kSwapIn)
      continue;
    if (op.tier == tier::Tier::kNvme) {
      EXPECT_EQ(op.block, 0);
      ++nvme_swaps;
    } else {
      EXPECT_EQ(op.block, 1);
      ++host_swaps;
    }
  }
  EXPECT_EQ(nvme_swaps, 2);  // one out, one in
  EXPECT_EQ(host_swaps, 2);
  // NVMe swaps are primed in the Sec. III-F.3 notation.
  EXPECT_NE(plan.schedule_string().find("Sout1'"), std::string::npos);
}

TEST(ScheduleGen, RejectsPerTierOverflow) {
  const graph::Model m = graph::make_vgg16(32);
  const auto blocks = sim::uniform_blocks(m, 6);
  // Host tier far smaller than one block's activations.
  sim::DeviceSpec d = sim::v100_abci();
  d.host_capacity = 1_MiB;
  std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kResident);
  policies[0] = BlockPolicy::kSwap;
  // Over-capacity admission is the typed infeasibility channel (the
  // planner skips such candidates; malformed input stays invalid_argument).
  EXPECT_THROW(build_training_plan(m, d, blocks, policies, "overflow"),
               karma::InfeasibleError);
  // Same for a toy NVMe tier.
  sim::DeviceSpec dn = sim::v100_abci_nvme();
  dn.nvme_capacity = 1_MiB;
  policies[0] = BlockPolicy::kSwapNvme;
  EXPECT_THROW(build_training_plan(m, dn, blocks, policies, "overflow"),
               karma::InfeasibleError);
  // And swap-nvme without any NVMe tier at all.
  EXPECT_THROW(build_training_plan(m, sim::v100_abci(), blocks, policies,
                                   "no-nvme"),
               karma::InfeasibleError);
}

TEST(TieredPlanner, AmpleHostReproducesSeedPlanBitIdentically) {
  // The tier subsystem must be a strict superset: when the model fits in
  // HBM + DRAM, a bounded-host device plans exactly like the seed device.
  const graph::Model m = graph::make_resnet50(512);
  const sim::DeviceSpec seed_device = sim::v100_abci();
  sim::DeviceSpec tiered_device = sim::v100_abci();
  tiered_device.host_capacity = 384_GiB;  // ample for every candidate

  const PlanResult a =
      KarmaPlanner(m, seed_device, fast_options(true)).plan();
  const PlanResult b =
      KarmaPlanner(m, tiered_device, fast_options(true)).plan();

  EXPECT_EQ(a.policies, b.policies);
  ASSERT_EQ(a.schedule.ops.size(), b.schedule.ops.size());
  for (std::size_t i = 0; i < a.schedule.ops.size(); ++i) {
    const sim::Op& x = a.schedule.ops[i];
    const sim::Op& y = b.schedule.ops[i];
    EXPECT_EQ(x.kind, y.kind) << "op " << i;
    EXPECT_EQ(x.block, y.block) << "op " << i;
    EXPECT_EQ(x.tier, y.tier) << "op " << i;
    EXPECT_EQ(x.bytes, y.bytes) << "op " << i;
    EXPECT_EQ(x.alloc, y.alloc) << "op " << i;
    EXPECT_EQ(x.free, y.free) << "op " << i;
    EXPECT_EQ(x.after_op, y.after_op) << "op " << i;
  }
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  EXPECT_TRUE(b.schedule.hierarchy.has_value());  // but tier-audited
}

TEST(TieredPlanner, TinyHostSpillsToNvmeAndPassesTraceCheck) {
  // Working set far beyond a 2 GiB host: the plan must spill to NVMe, run
  // without deadlock, and satisfy every replay invariant per tier.
  const graph::Model m = graph::make_resnet50(512);
  sim::DeviceSpec d = sim::v100_abci_nvme();
  d.host_capacity = 2_GiB;
  ASSERT_GT(graph::in_core_footprint(m), d.memory_capacity);

  // Without recompute the planner must place, not dodge, the overflow.
  const PlanResult r = KarmaPlanner(m, d, fast_options(false)).plan();
  int nvme_blocks = 0;
  for (const auto p : r.policies)
    if (p == BlockPolicy::kSwapNvme) ++nvme_blocks;
  EXPECT_GT(nvme_blocks, 0) << "2 GiB host cannot hold the swap set";

  const auto violations = sim::check_trace_invariants(r.schedule, r.trace);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  EXPECT_LE(r.trace.peak_host_resident, d.host_capacity);
  EXPECT_LE(r.trace.peak_nvme_resident, d.nvme_capacity);
  EXPECT_GT(r.trace.peak_nvme_resident, 0);
  EXPECT_GT(r.iteration_time, 0.0);
}

TEST(TieredPlanner, NvmeSpillSlowerThanAmpleHost) {
  // Offloading through a 1.3 GB/s SSD cannot beat 16 GB/s PCIe to DRAM.
  const graph::Model m = graph::make_resnet50(384);
  sim::DeviceSpec tiny_host = sim::v100_abci_nvme();
  tiny_host.host_capacity = 1_GiB;
  const PlanResult spill =
      KarmaPlanner(m, tiny_host, fast_options(false)).plan();
  const PlanResult ample =
      KarmaPlanner(m, sim::v100_abci(), fast_options(false)).plan();
  EXPECT_GE(spill.iteration_time, ample.iteration_time);
}

}  // namespace
}  // namespace karma::core
