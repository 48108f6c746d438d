// Table IV: Megatron-LM configurations trained with the original
// MP(+DP) hybrid (analytic cost model) vs data-parallel KARMA (simulated
// 5-stage pipeline), using the paper's own GPU counts per row.
//
// Zero-shot perplexity cannot be reproduced without training the models
// to convergence (thousands of GPU-years); the numeric-twin equivalence
// tests (test_ooc_exec / test_data_parallel) verify instead that KARMA's
// arithmetic is identical to plain data parallelism, which is why the
// paper's PPL columns agree between the two systems. The paper's PPL
// values are reproduced as reference.
#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/baselines/parallelism.h"

namespace karma::bench {
namespace {

struct Row {
  int config;           // megatron_config index
  int mp_gpus;          // "MP‡" column
  int mpdp_gpus;        // "MP+DP‡" column
  double paper_mpdp_perf;
  const char* paper_mpdp_ppl;
  int karma_gpus;       // "DP KARMA GPUs" column
  double paper_karma_perf;
  const char* paper_karma_ppl;
};

int run() {
  const sim::DeviceSpec device = sim::v100_abci();
  const net::NetSpec net = net::abci_net();

  // Paper Table IV rows (perf = iterations/second).
  const Row rows[] = {
      {0, 1, 64, 5.8, "13.66", 32, 2.2, "13.85"},
      {1, 2, 128, 1.6, "10.47", 64, 0.73, "10.34"},
      {2, 4, 256, 2.9, "8.21", 128, 1.94, "8.33"},
      {3, 8, 512, 5.0, "N/A", 256, 3.11, "N/A"},
      {4, 16, 1024, 8.4, "N/A", 512, 6.3, "N/A"},
  };
  constexpr std::int64_t kBatchPerGroup = 8;  // Megatron's per-group batch

  print_section("Table IV — Megatron-LM: MP+DP hybrid vs DP KARMA");
  Table table({"H", "A", "L", "P", "MP gpus", "MP+DP gpus",
               "hybrid it/s (sim)", "hybrid it/s (paper)", "PPL (paper)",
               "KARMA gpus", "KARMA it/s (sim)", "KARMA it/s (paper)",
               "KARMA PPL (paper)"});

  for (const Row& row : rows) {
    const graph::TransformerConfig cfg = graph::megatron_config(row.config);

    baselines::HybridConfig hybrid;
    hybrid.model = cfg;
    hybrid.num_gpus = row.mpdp_gpus;
    hybrid.mp_ways = row.mp_gpus;
    hybrid.batch_per_group = kBatchPerGroup;
    const auto hybrid_cost = baselines::megatron_hybrid_cost(hybrid, device, net);

    double karma_iters_per_s = 0.0;
    {
      api::PlanRequest request;
      request.model = graph::make_transformer(cfg, kBatchPerGroup);
      request.device = device;
      core::DistributedOptions options;
      options.num_gpus = row.karma_gpus;
      options.iterations = 2;
      options.planner.anneal_iterations = 0;  // superseded by request.planner
      request.planner.anneal_iterations = 0;
      request.distributed = options;
      request.probe_feasible_batch = false;
      const auto karma = api::Engine::create()->plan(request);
      if (karma)
        karma_iters_per_s = 1.0 / karma->iteration_time;
      else
        std::printf("  [config %d infeasible: %s]\n", row.config,
                    karma.error().describe().c_str());
    }

    table.begin_row();
    table.add_cell(cfg.hidden);
    table.add_cell(cfg.heads);
    table.add_cell(cfg.layers);
    table.add_cell(format_double(
                       static_cast<double>(cfg.approx_params()) / 1e9, 1) +
                   "B");
    table.add_cell(static_cast<std::int64_t>(row.mp_gpus));
    table.add_cell(static_cast<std::int64_t>(row.mpdp_gpus));
    table.add_cell(1.0 / hybrid_cost.iteration, 2);
    table.add_cell(row.paper_mpdp_perf, 1);
    table.add_cell(row.paper_mpdp_ppl);
    table.add_cell(static_cast<std::int64_t>(row.karma_gpus));
    table.add_cell(karma_iters_per_s, 2);
    table.add_cell(row.paper_karma_perf, 2);
    table.add_cell(row.paper_karma_ppl);
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\nNote: simulated iterations/s reproduce the *shape* — DP KARMA on\n"
      "half the GPUs sustains the same order of throughput as the hybrid —\n"
      "not ABCI's absolute numbers. PPL columns are the paper's (training\n"
      "to convergence is out of scope; see DESIGN.md §2 and the numeric\n"
      "equivalence tests).\n");

  // Bounded per-tier residency (DESIGN.md §9): the same configurations on
  // the NVMe node, whose 384 GiB DRAM is *bounded* — every row must admit
  // against the per-class host ledger (pinned weight shards + in-flight
  // gradients + activation spill), or report a structured deficit.
  print_section("Table IV-b — bounded-DRAM admission per configuration");
  Table residency({"P", "KARMA gpus", "host shards (pinned)",
                   "host peak", "DRAM bound", "it/s"});
  for (const Row& row : rows) {
    const graph::TransformerConfig cfg = graph::megatron_config(row.config);
    api::PlanRequest request;
    request.model = graph::make_transformer(cfg, kBatchPerGroup);
    request.device = sim::v100_abci_nvme();
    core::DistributedOptions options;
    options.num_gpus = row.karma_gpus;
    options.iterations = 2;
    request.planner.anneal_iterations = 0;
    request.distributed = options;
    request.probe_feasible_batch = false;
    const auto karma = api::Engine::create()->plan(request);
    residency.begin_row();
    residency.add_cell(format_double(
                           static_cast<double>(cfg.approx_params()) / 1e9, 1) +
                       "B");
    residency.add_cell(static_cast<std::int64_t>(row.karma_gpus));
    if (karma) {
      residency.add_cell(
          format_bytes(karma->schedule.host_baseline_resident));
      residency.add_cell(format_bytes(karma->trace.peak_host_resident));
      residency.add_cell(format_bytes(request.device.host_capacity));
      residency.add_cell(1.0 / karma->iteration_time, 2);
    } else {
      residency.add_cell("-");
      residency.add_cell("-");
      residency.add_cell(format_bytes(request.device.host_capacity));
      residency.add_cell(std::string("infeasible: ") +
                         plan_error_code_name(karma.error().code));
    }
  }
  std::printf("%s", residency.to_ascii().c_str());
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
