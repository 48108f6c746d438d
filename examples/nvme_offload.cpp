// NVMe offload walkthrough: training a model whose swap working set does
// not fit in host DRAM, by letting the planner spill the overflow to a
// third storage tier — all through the karma::api::Engine.
//
//   1. describe the platform as a storage hierarchy (HBM -> DRAM -> NVMe);
//   2. ask the memory model what the offload tiers must absorb;
//   3. plan via the Engine: the router fills DRAM with the blocks needed
//      soonest and sends the early blocks (most prefetch slack) to NVMe;
//   4. replay the plan on the engine and read per-tier peaks;
//   5. bind_executor() derives the real-value OocExecutor blocks + tier
//      policies from the plan — the planner->executor bridge, no hand
//      assembly.
#include <cstdio>

#include "src/api/engine.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/sim/trace_check.h"
#include "src/train/synthetic.h"

int main() {
  using namespace karma;

  // ---- 1. Platform: V100 with a deliberately tiny 4 GiB host share ----
  // (model a node whose DRAM is mostly claimed by other ranks' weights).
  sim::DeviceSpec device = sim::v100_abci_nvme();
  device.host_capacity = 4_GiB;
  const tier::StorageHierarchy hierarchy = sim::hierarchy_of(device);
  std::printf("hierarchy: %s\n", hierarchy.describe().c_str());

  // ---- 2. Workload: ResNet-50 at batch 1024 ----
  const graph::Model model = graph::make_resnet50(1024);
  const Bytes footprint = graph::in_core_footprint(model);
  // Activation budget = device capacity minus the resident weights +
  // weight grads, matching build_training_plan's accounting.
  const auto all = graph::range_memory(
      model, 0, static_cast<int>(model.num_layers()));
  const auto demand = graph::offload_footprint(
      model, device.memory_capacity - all.weights - all.weight_grads);
  std::printf("in-core footprint: %s (device holds %s)\n",
              format_bytes(footprint).c_str(),
              format_bytes(device.memory_capacity).c_str());
  std::printf("offload demand:    %s of activations, vs %s of host DRAM\n",
              format_bytes(demand.offloaded_activations).c_str(),
              format_bytes(device.host_capacity).c_str());

  // ---- 3. Plan with tier-aware placement, one facade call ----
  api::PlanRequest request;
  request.model = model;
  request.device = device;
  request.planner.enable_recompute = false;  // keep it about placement
  request.planner.anneal_iterations = 60;
  const auto planned = api::Engine::create()->plan(request);
  if (!planned) {
    std::printf("infeasible:\n%s\n", planned.error().describe().c_str());
    return 1;
  }
  const api::Plan& plan = *planned;

  int host_blocks = 0, nvme_blocks = 0, resident_blocks = 0;
  for (const auto p : plan.policies) {
    if (p == core::BlockPolicy::kSwap) ++host_blocks;
    if (p == core::BlockPolicy::kSwapNvme) ++nvme_blocks;
    if (p == core::BlockPolicy::kResident) ++resident_blocks;
  }
  std::printf(
      "\nplacement: %zu blocks -> %d resident / %d swap(host) / %d "
      "swap(nvme)\n",
      plan.blocks().size(), resident_blocks, host_blocks, nvme_blocks);
  std::printf("schedule (NVMe swaps primed): %s...\n",
              plan.schedule.schedule_string().substr(0, 160).c_str());

  // ---- 4. Replay: per-tier peaks and the iteration price ----
  const auto violations =
      sim::check_trace_invariants(plan.schedule, plan.trace);
  std::printf("\ntrace_check: %s\n",
              violations.empty() ? "clean" : violations[0].c_str());
  std::printf("iteration: %s (%.1f samples/s)\n",
              format_seconds(plan.iteration_time).c_str(),
              1024.0 / plan.iteration_time);
  std::printf("peaks: device %s, host %s, nvme %s\n",
              format_bytes(plan.trace.peak_resident).c_str(),
              format_bytes(plan.trace.peak_host_resident).c_str(),
              format_bytes(plan.trace.peak_nvme_resident).c_str());

  // ---- 5. The same protocol on real values (toy-sized), bound from the
  // plan itself: bind_executor projects the blocking + tier policies onto
  // the Sequential, so the real-value run exercises exactly the routing
  // planned above — the planner->executor path end to end.
  Rng rng(42);
  train::Sequential net = train::make_mlp({20, 64, 64, 64, 5}, rng);
  train::OocExecutor exec = plan.bind_executor(&net, Bytes{1} << 30,
                                               /*host_capacity=*/Bytes{1}
                                                   << 20);
  const train::SyntheticBatch data =
      train::make_synthetic_batch(16, {20}, 5, rng);
  const train::StepStats stats =
      exec.compute_gradients(data.inputs, data.labels);
  std::printf(
      "\nreal-value step: loss %.4f; host out/in %lld/%lld B, nvme out/in "
      "%lld/%lld B\n",
      static_cast<double>(stats.loss),
      static_cast<long long>(stats.swapped_out_bytes),
      static_cast<long long>(stats.swapped_in_bytes),
      static_cast<long long>(stats.nvme_out_bytes),
      static_cast<long long>(stats.nvme_in_bytes));
  return violations.empty() ? 0 : 1;
}
