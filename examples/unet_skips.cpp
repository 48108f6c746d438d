// Non-linear models (Sec. III-F.4): U-Net's contracting->expansive skip
// connections prevent swapping the contracting path out early — KARMA's
// second optimization problem steers those blocks to recompute instead.
// This example makes that behaviour visible.
//
//   $ ./unet_skips [batch]
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/api/engine.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace karma;

  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 24;
  const graph::Model model = graph::make_unet(batch);
  const sim::DeviceSpec device = sim::v100_abci();

  std::printf("U-Net, batch %lld: %zu layers, skip span up to %d layers\n",
              static_cast<long long>(batch), model.num_layers(),
              model.max_skip_span());
  std::printf("in-core footprint %s (device %s)\n",
              format_bytes(graph::in_core_footprint(model)).c_str(),
              format_bytes(device.memory_capacity).c_str());

  api::PlanRequest request;
  request.model = model;
  request.device = device;
  request.planner.enable_recompute = true;
  const api::Plan plan = api::Engine::create()->plan_or_throw(request);
  const sim::LayerCostTable cost_table(model, device);
  std::vector<int> reach;
  for (const auto& b : plan.blocks()) reach.push_back(cost_table.reach(b));
  const auto long_skip = core::blocks_with_long_skips(plan.blocks(), reach);

  Table table({"block", "layers", "has outgoing skip", "policy"});
  int skip_blocks = 0, skip_swapped = 0;
  for (std::size_t b = 0; b < plan.blocks().size(); ++b) {
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(b + 1));
    table.add_cell(model.layer(plan.blocks()[b].first_layer).name + " .. " +
                   model.layer(plan.blocks()[b].last_layer - 1).name);
    table.add_cell(long_skip[b] ? "yes" : "");
    table.add_cell(core::block_policy_name(plan.policies[b]));
    if (long_skip[b]) {
      ++skip_blocks;
      if (plan.policies[b] == core::BlockPolicy::kSwap) ++skip_swapped;
    }
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\n%d block(s) carry outgoing skips; %d of them are swap-policy\n"
      "(Sec. III-F.4 expects 0 — they are recomputed or kept resident so\n"
      "the expansive path finds its inputs without premature swap-ins).\n",
      skip_blocks, skip_swapped);
  std::printf("\niteration %s, occupancy %.3f, peak %s\n",
              format_seconds(plan.iteration_time).c_str(), plan.occupancy,
              format_bytes(plan.trace.peak_resident).c_str());
  return skip_swapped == 0 ? 0 : 1;
}
