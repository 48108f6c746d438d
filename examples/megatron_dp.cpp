// Data-parallel KARMA for a billion-parameter transformer: the workload
// the paper's multi-GPU contribution targets (Sec. III-G / Table IV).
// Plans the 5-stage pipeline for a Megatron-LM configuration whose
// weights alone overflow a V100, prints the weight-swapping schedule, the
// phased gradient-exchange plan, and the simulated scaling curve.
//
//   $ ./megatron_dp [config 0..4] [gpus]
//
// Uses the v2 service API: one Engine, plan_async fan-out for the scaling
// curve (each cluster size is an independent search; the worker pool runs
// them concurrently while the main thread renders the results in order).
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "src/api/engine.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace karma;

  const int config_index = argc > 1 ? std::atoi(argv[1]) : 2;  // 2.5B
  const int gpus = argc > 2 ? std::atoi(argv[2]) : 128;
  const std::int64_t local_batch = 8;

  const graph::TransformerConfig cfg = graph::megatron_config(config_index);
  const graph::Model model = graph::make_transformer(cfg, local_batch);
  const sim::DeviceSpec device = sim::v100_abci();

  std::printf("model:  %s (%.1fB params, fp16)\n", model.name().c_str(),
              static_cast<double>(cfg.approx_params()) / 1e9);
  std::printf("weights+grads: %s vs device %s -> %s\n",
              format_bytes(2 * cfg.approx_params() * cfg.dtype_bytes).c_str(),
              format_bytes(device.memory_capacity).c_str(),
              "weight swapping required");

  api::PlanRequest request;
  request.model = model;
  request.device = device;
  core::DistributedOptions options;
  options.num_gpus = gpus;
  options.iterations = 3;
  options.planner.anneal_iterations = 0;  // superseded by request.planner
  request.planner.anneal_iterations = 0;
  request.distributed = options;
  const auto engine = api::Engine::create();
  const api::Plan result = engine->plan_or_throw(request);
  const net::ExchangePlan& exchange = *result.exchange;

  std::printf("\n5-stage pipeline plan (%d GPUs, local batch %lld):\n", gpus,
              static_cast<long long>(local_batch));
  std::printf("  blocks: %zu, weights %s\n", result.blocks().size(),
              result.weights_resident ? "resident" : "swapped per block");
  std::printf("  steady-state iteration: %s (first: %s)\n",
              format_seconds(result.iteration_time).c_str(),
              format_seconds(result.first_iteration_time).c_str());
  std::printf("  cluster throughput: %.1f samples/s\n",
              static_cast<double>(gpus) * local_batch /
                  result.iteration_time);
  std::printf("  peak device memory: %s\n",
              format_bytes(result.trace.peak_resident).c_str());

  // Bounded per-tier residency (DESIGN.md §9): replan on the NVMe node,
  // whose 384 GiB DRAM is bounded. The host ledger now carries the pinned
  // master weight shards, the in-flight gradients between gradient-out
  // and CPU update, and any activation spill — all admitted statically
  // and replayed per class by the engine.
  {
    api::PlanRequest bounded = request;
    bounded.device = sim::v100_abci_nvme();
    bounded.distributed->iterations = 3;
    const api::Plan r = engine->plan_or_throw(bounded);
    std::printf("\nbounded-DRAM node (%s DRAM, %s NVMe):\n",
                format_bytes(bounded.device.host_capacity).c_str(),
                format_bytes(bounded.device.nvme_capacity).c_str());
    std::printf("  host shards (pinned master copy): %s\n",
                format_bytes(r.schedule.host_baseline_resident).c_str());
    std::printf("  peak host residency (shards+grads+spill): %s\n",
                format_bytes(r.trace.peak_host_resident).c_str());
    std::printf("  peak NVMe residency: %s\n",
                format_bytes(r.trace.peak_nvme_resident).c_str());
    std::printf("  steady-state iteration: %s\n",
                format_seconds(r.iteration_time).c_str());

    // And the honest failure mode: DRAM too small for the shard residency
    // yields a structured per-tier deficit, not a mystery deadlock.
    api::PlanRequest tiny = bounded;
    tiny.device.host_capacity = 256_MiB;
    tiny.probe_feasible_batch = false;
    const auto rejected = engine->plan(tiny);
    if (!rejected)
      std::printf("\nwith only 256 MiB DRAM the planner reports:\n%s\n",
                  rejected.error().describe().c_str());
  }

  std::printf("\nphased gradient exchange (%zu phases, MG-WFBP grouping):\n",
              exchange.phases.size());
  Table phases({"phase", "launch after block", "blocks merged", "payload",
                "allreduce"});
  const std::size_t show = std::min<std::size_t>(8, exchange.phases.size());
  for (std::size_t i = 0; i < show; ++i) {
    const auto& p = exchange.phases[i];
    phases.begin_row();
    phases.add_cell(static_cast<std::int64_t>(i + 1));
    phases.add_cell(static_cast<std::int64_t>(p.launch_after_block + 1));
    phases.add_cell(static_cast<std::int64_t>(p.blocks.size()));
    phases.add_cell(format_bytes(p.bytes));
    phases.add_cell(format_seconds(p.allreduce_time));
  }
  std::printf("%s", phases.to_ascii().c_str());
  if (exchange.phases.size() > show)
    std::printf("  ... %zu more phases\n", exchange.phases.size() - show);

  // Scaling curve around the requested point: one async submission per
  // cluster size — the Engine's worker pool plans them concurrently, and
  // get() collects in display order.
  std::printf("\nscaling (7.2M-sample epoch, planned concurrently):\n");
  std::vector<int> cluster_sizes;
  std::vector<api::PlanFuture> futures;
  for (const int g : {gpus / 2, gpus, gpus * 2, gpus * 4}) {
    if (g < 2) continue;
    api::PlanRequest scaled = request;
    scaled.distributed->num_gpus = g;
    scaled.distributed->iterations = 2;
    cluster_sizes.push_back(g);
    futures.push_back(engine->plan_async(scaled));
  }
  Table scaling({"GPUs", "iteration [s]", "epoch [h]"});
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto planned = futures[i].get();
    if (!planned) {
      std::printf("  %d GPUs: %s\n", cluster_sizes[i],
                  planned.error().describe().c_str());
      continue;
    }
    const int g = cluster_sizes[i];
    scaling.begin_row();
    scaling.add_cell(static_cast<std::int64_t>(g));
    scaling.add_cell(planned->iteration_time, 3);
    scaling.add_cell(7.2e6 / (static_cast<double>(g) * local_batch) *
                         planned->iteration_time / 3600.0,
                     2);
  }
  std::printf("%s", scaling.to_ascii().c_str());
  return 0;
}
