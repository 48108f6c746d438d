// Fig. 7: the best blocking KARMA finds for ResNet-50/ImageNet
// (batch 512) on a V100 16 GiB, plus the stall-reduction comparison the
// paper attaches to it (43% less stalling than SuperNeurons, 37% less
// than vDNN++).
#include "bench/bench_common.h"
#include "src/baselines/strategies.h"
#include "src/graph/memory_model.h"

namespace karma::bench {
namespace {

int run() {
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model model = graph::make_resnet50(512);

  print_section("Fig. 7 — best blocking for ResNet-50, batch 512");
  const auto karma = baselines::plan_karma_recompute(model, device);
  if (!karma) {
    std::printf("infeasible\n");
    return 1;
  }

  Table table({"block", "layers", "span", "policy", "fwd [ms]", "acts"});
  for (std::size_t b = 0; b < karma->schedule.blocks.size(); ++b) {
    const sim::Block& blk = karma->schedule.blocks[b];
    const sim::BlockCost& cost = karma->schedule.costs[b];
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(b + 1));
    table.add_cell(std::to_string(blk.first_layer) + ".." +
                   std::to_string(blk.last_layer - 1));
    table.add_cell(model.layer(blk.first_layer).name + " .. " +
                   model.layer(blk.last_layer - 1).name);
    table.add_cell(core::block_policy_name(karma->policies[b]));
    table.add_cell(cost.fwd_time * 1e3, 2);
    table.add_cell(format_bytes(cost.act_bytes));
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("\nschedule: %s\n",
              karma->schedule.schedule_string().substr(0, 400).c_str());
  std::printf("iteration %.3f s, occupancy %.3f, peak %s\n",
              karma->iteration_time, karma->occupancy,
              format_bytes(karma->trace.peak_resident).c_str());

  print_section("Stall reduction vs baselines (paper: 43% / 37%)");
  const auto sn = baselines::plan_superneurons(model, device);
  const auto vdnn = baselines::plan_vdnnpp(model, device);
  const Seconds karma_stall = karma->trace.compute_stall();
  Table cmp({"strategy", "compute stall [s]", "KARMA reduction"});
  const auto add = [&](const char* name, const auto& r) {
    if (!r) return;
    const Seconds stall = r->trace.compute_stall();
    cmp.begin_row();
    cmp.add_cell(name);
    cmp.add_cell(stall, 3);
    cmp.add_cell(
        stall > 0 ? format_double(100.0 * (1.0 - karma_stall / stall), 0) + "%"
                  : std::string("-"));
  };
  cmp.begin_row();
  cmp.add_cell("KARMA (w/ recomp)");
  cmp.add_cell(karma_stall, 3);
  cmp.add_cell("-");
  add("SuperNeurons", sn);
  add("vDNN++", vdnn);
  std::printf("%s", cmp.to_ascii().c_str());
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
