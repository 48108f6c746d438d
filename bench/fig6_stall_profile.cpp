// Fig. 6: normalized per-block time of the backward phase of ResNet-200
// (out-of-core batch 12 stacked against in-core batch 4), back-to-front,
// for SuperNeurons, vDNN++, KARMA, and KARMA w/ recompute. The paper's
// qualitative features to look for:
//  - vDNN++ shows an early large spike (the eagerly evicted tail) plus
//    spread-out stalls;
//  - SuperNeurons' stalls spread across layers (type-based policy);
//  - KARMA removes the early spike (capacity-based tail residency);
//  - KARMA w/ recompute is flat between the few unavoidable spikes.
#include <algorithm>
#include <cmath>

#include "bench/bench_common.h"
#include "src/baselines/strategies.h"

namespace karma::bench {
namespace {

/// Renders a per-block profile as an ASCII bar sparkline (log-ish scale).
std::string bars(const std::vector<Seconds>& profile, Seconds unit) {
  static const char* kGlyphs[] = {"_", ".", ":", "-", "=", "+", "*", "#", "%", "@"};
  std::string out;
  for (const Seconds v : profile) {
    const double r = unit > 0 ? v / unit : 0.0;
    const int idx = std::clamp(static_cast<int>(std::lround(r)), 0, 9);
    out += kGlyphs[idx];
  }
  return out;
}

int run() {
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model ooc_model = graph::make_resnet200(12);
  const graph::Model incore_model = graph::make_resnet200(4);

  print_section("Fig. 6 — ResNet-200 backward-phase profile");
  std::printf(
      "in-core batch 4 vs out-of-core batch 12; per-block backward time\n"
      "normalized to the in-core mean; blocks ordered back-to-front.\n\n");

  struct Row {
    const char* name;
    std::optional<core::PlanResult> (*plan)(const graph::Model&,
                                            const sim::DeviceSpec&);
  };
  const Row rows[] = {{"SuperNeurons", &baselines::plan_superneurons},
                      {"vDNN++", &baselines::plan_vdnnpp},
                      {"KARMA", &baselines::plan_karma},
                      {"KARMA (w/ recomp)", &baselines::plan_karma_recompute}};

  Table summary({"strategy", "blocks", "bwd total [s]", "bwd stall [s]",
                 "peak/mean", "norm. max spike"});

  for (const Row& row : rows) {
    const auto result = row.plan(ooc_model, device);
    if (!result) {
      std::printf("%-18s infeasible\n", row.name);
      continue;
    }
    const int nb = result->schedule.num_blocks();
    auto profile = result->trace.backward_profile(nb);
    std::reverse(profile.begin(), profile.end());  // back-to-front

    // In-core reference at the same blocking for normalization.
    double incore_mean = 0.0;
    {
      const core::KarmaPlanner planner(incore_model, device, {});
      std::vector<core::BlockPolicy> resident(
          result->schedule.blocks.size(), core::BlockPolicy::kResident);
      // Re-derive the same blocking on the in-core model (same layer
      // count, smaller batch).
      const auto ref =
          planner.evaluate(result->schedule.blocks, resident, "ref");
      if (ref) {
        auto p = ref->trace.backward_profile(nb);
        for (const Seconds v : p) incore_mean += v;
        incore_mean /= nb;
      }
    }
    double mean = 0.0, peak = 0.0;
    for (const Seconds v : profile) {
      mean += v;
      peak = std::max(peak, v);
    }
    const double total = mean;
    mean /= nb;

    std::printf("%-18s |%s|\n", row.name,
                bars(profile, incore_mean > 0 ? 3.0 * incore_mean : mean)
                    .c_str());
    summary.begin_row();
    summary.add_cell(row.name);
    summary.add_cell(static_cast<std::int64_t>(nb));
    summary.add_cell(total, 3);
    summary.add_cell(result->trace.backward_stall(), 3);
    summary.add_cell(peak / mean, 2);
    summary.add_cell(incore_mean > 0 ? peak / incore_mean : 0.0, 2);
  }
  std::printf("\n%s", summary.to_ascii().c_str());
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
