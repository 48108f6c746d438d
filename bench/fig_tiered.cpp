// Tiered-offload sweep (storage hierarchy extension, DESIGN.md §7):
// ResNet-50 batches whose swap working set outgrows a constrained host
// DRAM. Three configurations per batch:
//   two-tier      — the seed model: HBM + unbounded host DRAM;
//   host-only 8G  — host bounded at 8 GiB, no NVMe: planning must *refuse*
//                   once the spill set outgrows DRAM (the failure mode
//                   that motivates the third tier);
//   three-tier    — the same 8 GiB host backed by a 1.6 TB NVMe SSD:
//                   overflow blocks spill to storage and training goes on.
// Per-tier peaks come from the engine's ledger; the NVMe column counts
// blocks the router placed on storage.
#include <stdexcept>

#include "bench/bench_common.h"
#include "src/core/planner.h"
#include "src/graph/memory_model.h"
#include "src/sim/trace_check.h"

namespace karma::bench {
namespace {

/// The search an uncalibrated api::Engine runs for this request, without
/// the Engine's plan cache: every row checks the search's full trace.
std::optional<core::PlanResult> plan_on(const graph::Model& model,
                                        const sim::DeviceSpec& device) {
  core::PlannerOptions options;
  options.enable_recompute = false;  // isolate placement from remat
  options.anneal_iterations = 60;
  try {
    return core::KarmaPlanner(model, device, options).plan();
  } catch (const std::runtime_error&) {
    return std::nullopt;  // refusal is part of the figure
  }
}

int run() {
  const Bytes host_cap = 8_GiB;

  const sim::DeviceSpec two_tier = sim::v100_abci();

  sim::DeviceSpec host_only = sim::v100_abci();
  host_only.name = "V100 + 8GiB host";
  host_only.host_capacity = host_cap;

  sim::DeviceSpec three_tier = sim::v100_abci_nvme();
  three_tier.name = "V100 + 8GiB host + NVMe";
  three_tier.host_capacity = host_cap;

  print_section(
      "Tiered offload — ResNet-50 on V100-16GiB, host DRAM capped at 8 GiB");
  std::printf(
      "working set = in-core footprint; spill = activation bytes the device\n"
      "cannot retain (graph::offload_footprint). Once spill > 8 GiB the\n"
      "two-level bounded-host model refuses the plan; the NVMe tier keeps\n"
      "training feasible at storage bandwidth.\n\n");

  Table table({"batch", "working set", "spill", "2-tier [s]", "host-only [s]",
               "3-tier [s]", "nvme blks", "peak host", "peak nvme"});

  for (const std::int64_t batch : {128, 256, 512, 768, 1024}) {
    const graph::Model model = graph::make_resnet50(batch);
    table.begin_row();
    table.add_cell(batch);
    table.add_cell(format_bytes(graph::in_core_footprint(model)));
    // The device retains weights + weight grads; only the remainder is
    // activation budget (same accounting as build_training_plan).
    const auto all = graph::range_memory(
        model, 0, static_cast<int>(model.num_layers()));
    const auto demand = graph::offload_footprint(
        model, two_tier.memory_capacity - all.weights - all.weight_grads);
    table.add_cell(format_bytes(demand.offloaded_activations));

    const auto base = plan_on(model, two_tier);
    table.add_cell(base ? format_seconds(base->iteration_time) : "-");

    const auto bounded = plan_on(model, host_only);
    table.add_cell(bounded ? format_seconds(bounded->iteration_time)
                           : "REFUSED");

    const auto tiered = plan_on(model, three_tier);
    if (!tiered) {
      table.add_cell("-");
      table.add_cell("-");
      table.add_cell("-");
      table.add_cell("-");
      continue;
    }
    const auto violations =
        sim::check_trace_invariants(tiered->schedule, tiered->trace);
    if (!violations.empty()) {
      std::printf("TRACE VIOLATION (batch %lld): %s\n",
                  static_cast<long long>(batch), violations[0].c_str());
      return 1;
    }
    std::int64_t nvme_blocks = 0;
    for (const auto p : tiered->policies)
      if (p == core::BlockPolicy::kSwapNvme) ++nvme_blocks;
    table.add_cell(format_seconds(tiered->iteration_time));
    table.add_cell(nvme_blocks);
    table.add_cell(format_bytes(tiered->trace.peak_host_resident));
    table.add_cell(format_bytes(tiered->trace.peak_nvme_resident));
  }
  std::printf("%s", table.to_ascii().c_str());

  std::printf(
      "\nReading: host-only refusal marks the scenario family the seed\n"
      "cannot express; the 3-tier column is the price (NVMe bandwidth)\n"
      "of admitting it.\n");
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
