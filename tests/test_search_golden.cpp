// Searched plans pinned across commits: every search entry point — the
// cold planner, a bounded-tier device, calib::repair, the data-parallel
// pipeline in both weight regimes, a fleet's node legs and each baseline
// strategy — must keep choosing the same blocks and policies, emit the
// same number of ops and replay to the same iteration time (17
// significant digits) as tests/golden/search_fixture.json records.
// A refactor of the search must leave this fixture untouched; a change
// that means to move plans regenerates it (KARMA_REGEN_GOLDEN=1
// ./test_search_golden) and shows the diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/baselines/strategies.h"
#include "src/calib/repair.h"
#include "src/core/distributed.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet_planner.h"
#include "src/sim/device.h"
#include "src/util/units.h"

namespace karma {
namespace {

/// One fixture member: `"name": {blocks, policies, ops, iteration_time}`.
void pin(std::ostringstream& out, const std::string& name,
         const core::PlanResult& r) {
  out << (out.tellp() > 0 ? ",\n" : "") << "  \"" << name
      << "\": {\"blocks\": [";
  for (std::size_t b = 0; b < r.schedule.blocks.size(); ++b)
    out << (b ? "," : "") << "[" << r.schedule.blocks[b].first_layer << ","
        << r.schedule.blocks[b].last_layer << "]";
  out << "], \"policies\": [";
  for (std::size_t b = 0; b < r.policies.size(); ++b)
    out << (b ? "," : "") << "\"" << core::block_policy_name(r.policies[b])
        << "\"";
  char time[32];
  std::snprintf(time, sizeof time, "%.17g", r.iteration_time);
  out << "], \"ops\": " << r.schedule.ops.size() << ", \"iteration_time\": "
      << time << "}";
}

std::string searched_plans() {
  std::ostringstream out;
  const sim::DeviceSpec v100 = sim::v100_abci();

  const graph::Model resnet50 = graph::make_resnet50(256);
  const core::PlanResult cold =
      core::KarmaPlanner(resnet50, v100).plan();
  pin(out, "plan/resnet50-256/v100", cold);
  pin(out, "plan/unet-16/v100",
      core::KarmaPlanner(graph::make_unet(16), v100).plan());

  const graph::Model resnet50_512 = graph::make_resnet50(512);
  const core::PlanResult deep = core::KarmaPlanner(resnet50_512, v100).plan();
  pin(out, "plan/resnet50-512/v100", deep);
  sim::DeviceSpec tiered = sim::v100_abci_nvme();
  tiered.host_capacity = 2_GiB;
  core::PlannerOptions swap_only;  // recompute would dodge the tiers
  swap_only.enable_recompute = false;
  pin(out, "plan/resnet50-512/v100-2gib-host-nvme/no-recompute",
      core::KarmaPlanner(resnet50_512, tiered, swap_only).plan());

  calib::CalibrationTable table;  // swaps measured ~4x slower than modeled
  table.factors["*"] = {{"h2d", 4.0}, {"d2h", 4.0}};
  pin(out, "repair/resnet50-512/v100-slow-swaps",
      calib::repair(resnet50_512, v100, table, deep.schedule.blocks,
                    deep.policies));

  core::DistributedOptions dp;
  dp.num_gpus = 16;
  dp.iterations = 3;
  dp.planner.anneal_iterations = 0;
  const core::PlanResult resident =
      core::plan_data_parallel(resnet50, v100, dp);
  EXPECT_TRUE(resident.weights_resident);
  pin(out, "data-parallel/resnet50-256/v100-16", resident);
  dp.num_gpus = 128;
  const core::PlanResult swapping = core::plan_data_parallel(
      graph::make_transformer(graph::megatron_config(2), 4), v100, dp);
  EXPECT_FALSE(swapping.weights_resident);
  pin(out, "data-parallel/megatron2-4/v100-128", swapping);
  dp.num_gpus = 64;  // bounded host DRAM: shard residency routes spills
  pin(out, "data-parallel/megatron1-4/v100-nvme-64",
      core::plan_data_parallel(
          graph::make_transformer(graph::megatron_config(1), 4),
          sim::v100_abci_nvme(), dp));

  graph::TransformerConfig chain;
  chain.hidden = 256;
  chain.heads = 4;
  chain.layers = 4;
  chain.seq_len = 128;
  chain.vocab = 1000;
  place::FleetPlanOptions fleet_options;
  fleet_options.planner.anneal_iterations = 0;
  fleet_options.placement.target_blocks = 8;
  const place::FleetPlanResult fleet = place::plan_fleet(
      graph::make_transformer_chain(chain, 8),
      place::mixed_generation_fleet(2, 2, 8_GiB), fleet_options);
  for (std::size_t n = 0; n < fleet.nodes.size(); ++n)
    pin(out, "fleet/mixed-2x2/node" + std::to_string(n), fleet.nodes[n]);

  const graph::Model resnet200 = graph::make_resnet200(16);
  for (const auto& entry : baselines::all_strategies()) {
    // in-core cannot hold ResNet-200/16: its row pins the empty plan.
    const auto r = entry.plan(resnet200, v100);
    pin(out, std::string("baseline/resnet200-16/v100/") + entry.name,
        r ? *r : core::PlanResult{});
  }
  return "{\n" + out.str() + "\n}\n";
}

TEST(SearchGolden, SearchedPlansMatchFixture) {
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/search_fixture.json";
  const std::string actual = searched_plans();

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_search_golden";
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "a searched plan moved; if intentional, regenerate the fixture "
         "with KARMA_REGEN_GOLDEN=1 and review the diff";
}

}  // namespace
}  // namespace karma
