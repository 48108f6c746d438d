// Table I's differentiating claims, quantified:
//  1. Strong scaling (MN): data-parallel KARMA's efficiency as GPUs grow
//     with the global batch held fixed — the regime where the hybrid's
//     communication cost "magnifies" (Sec. IV-C's parity observation).
//  2. Fault tolerance (MN): epoch-time overhead of device failures under
//     the shrink and relaunch recovery modes (Sec. II-B / Table I), which
//     no single-GPU out-of-core method and no model-parallel layout can
//     offer at all.
#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/baselines/parallelism.h"
#include "src/core/elastic.h"

namespace karma::bench {
namespace {

void strong_scaling() {
  print_section("Strong scaling — Megatron-LM 2.5B, fixed global batch 512");
  const sim::DeviceSpec device = sim::v100_abci();
  const net::NetSpec net = net::abci_net();
  const graph::TransformerConfig cfg = graph::megatron_config(2);
  constexpr std::int64_t kGlobalBatch = 512;

  Table table({"GPUs", "KARMA local batch", "KARMA iter [s]",
               "KARMA eff.", "hybrid iter [s]", "hybrid eff."});
  double karma_base = 0.0, hybrid_base = 0.0;
  int base_gpus = 0;
  for (const int gpus : {64, 128, 256, 512}) {
    const std::int64_t local = kGlobalBatch / gpus;
    if (local < 1) break;

    api::PlanRequest request;
    request.model = graph::make_transformer(cfg, local);
    request.device = device;
    core::DistributedOptions options;
    options.num_gpus = gpus;
    options.iterations = 2;
    options.planner.anneal_iterations = 0;  // superseded by request.planner
    request.planner.anneal_iterations = 0;
    request.distributed = options;
    const api::Plan karma = api::Engine::create()->plan_or_throw(request);

    baselines::HybridConfig hybrid;
    hybrid.model = cfg;
    hybrid.num_gpus = gpus;
    hybrid.mp_ways = 4;
    hybrid.batch_per_group = kGlobalBatch / (gpus / 4);
    const auto h = baselines::megatron_hybrid_cost(hybrid, device, net);

    if (base_gpus == 0) {
      base_gpus = gpus;
      karma_base = karma.iteration_time * gpus;
      hybrid_base = h.iteration * gpus;
    }
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(gpus));
    table.add_cell(local);
    table.add_cell(karma.iteration_time, 3);
    table.add_cell(karma_base / (karma.iteration_time * gpus), 3);
    table.add_cell(h.iteration, 3);
    table.add_cell(hybrid_base / (h.iteration * gpus), 3);
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("(efficiency = T(%d)*%d / (T(n)*n); 1.0 = perfect)\n",
              base_gpus, base_gpus);
}

void fault_tolerance() {
  print_section("Fault tolerance — ResNet-50 b=128, 64 GPUs, 8.2M samples");
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model model = graph::make_resnet50(128);
  constexpr std::int64_t kSamples = 8'192'000;

  core::ElasticOptions options;
  options.distributed.num_gpus = 64;
  options.distributed.iterations = 2;
  options.distributed.planner.anneal_iterations = 0;
  // Checkpoint every quarter epoch; costs sized for this ~10-minute epoch
  // (production defaults target multi-hour epochs).
  options.checkpoint_interval = 0.25;
  options.checkpoint_cost = 5.0;
  options.relaunch_cost = 30.0;

  Table table({"scenario", "mode", "epoch [min]", "overhead", "final ranks"});
  const auto add = [&](const char* scenario, core::RecoveryMode mode,
                       const std::vector<core::FaultEvent>& faults) {
    options.mode = mode;
    const auto r = core::simulate_epoch_with_faults(model, device, options,
                                                    kSamples, faults);
    table.begin_row();
    table.add_cell(scenario);
    table.add_cell(mode == core::RecoveryMode::kShrink ? "shrink"
                                                       : "relaunch");
    table.add_cell(r.epoch_with_faults / 60.0, 2);
    table.add_cell(format_double(100.0 * r.overhead_fraction, 1) + "%");
    table.add_cell(static_cast<std::int64_t>(r.final_ranks));
  };
  add("no faults", core::RecoveryMode::kShrink, {});
  add("1 GPU fails at 50%", core::RecoveryMode::kShrink, {{0.5, 1}});
  add("1 GPU fails at 50%", core::RecoveryMode::kRelaunch, {{0.5, 1}});
  add("4 GPUs fail at 25%", core::RecoveryMode::kShrink, {{0.25, 4}});
  add("node (4) + node (4)", core::RecoveryMode::kShrink,
      {{0.25, 4}, {0.75, 4}});
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\nSingle-GPU out-of-core methods and model parallelism lose the\n"
      "whole job in every scenario above (Table I: Fault Tolerance =\n"
      "N/A / no); data-parallel KARMA degrades gracefully.\n");
}

int run() {
  strong_scaling();
  fault_tolerance();
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
