// Table V: cost/performance ($/P = GPUs / training throughput, normalized
// to the first row) when scaling the global mini-batch:
//   - data parallelism adds GPUs with the per-GPU batch pinned at the
//     memory-capacity maximum;
//   - data-parallel KARMA keeps the GPU count fixed and grows the per-GPU
//     batch beyond memory with out-of-core execution.
// The paper's shape: KARMA is the cheaper way to scale for the first
// couple of steps, then data parallelism wins as OOC slowdown magnifies.
#include "bench/bench_common.h"
#include "src/api/engine.h"

namespace karma::bench {
namespace {

struct Workload {
  const char* name;
  graph::Model (*make)(std::int64_t);
  std::int64_t per_gpu_batch;          ///< capacity max (Fig. 5 grid)
  std::vector<int> dp_gpus;            ///< 100..600 as in Table V
  int karma_gpus;                      ///< fixed GPU pool for KARMA
};

double dollars_per_perf(double gpus, double samples_per_s) {
  return gpus / samples_per_s;
}

int run() {
  const sim::DeviceSpec device = sim::v100_abci();
  const Workload workloads[] = {
      {"ResNet-50", &graph::make_resnet50, 128,
       {100, 200, 300, 400, 500, 600}, 100},
      {"ResNet-200", &graph::make_resnet200, 4,
       {100, 200, 300, 400, 500, 600}, 100},
  };

  for (const Workload& w : workloads) {
    print_section(std::string("Table V — ") + w.name +
                  " cost/performance (normalized $/P)");
    Table table({"global batch", "DP GPUs", "DP $/P", "KARMA GPUs",
                 "KARMA per-GPU batch", "KARMA $/P"});

    double dp_base = 0.0, karma_base = 0.0;
    for (std::size_t step = 0; step < w.dp_gpus.size(); ++step) {
      const int gpus = w.dp_gpus[step];
      const std::int64_t global_batch =
          static_cast<std::int64_t>(gpus) * w.per_gpu_batch;

      // Data parallelism: per-GPU batch fixed at the capacity max.
      const auto engine = api::Engine::create();
      api::PlanRequest dp_request;
      dp_request.model = w.make(w.per_gpu_batch);
      dp_request.device = device;
      core::DistributedOptions dp_options;
      dp_options.num_gpus = gpus;
      dp_options.iterations = 2;
      dp_options.planner.anneal_iterations = 0;
      dp_request.planner = dp_options.planner;
      dp_request.distributed = dp_options;
      const api::Plan dp = engine->plan_or_throw(dp_request);
      const double dp_tput =
          static_cast<double>(global_batch) / dp.iteration_time;
      const double dp_cost = dollars_per_perf(gpus, dp_tput);

      // KARMA: fixed GPUs, growing per-GPU batch (out-of-core past step 0).
      const std::int64_t karma_batch = global_batch / w.karma_gpus;
      api::PlanRequest karma_request;
      karma_request.model = w.make(karma_batch);
      karma_request.device = device;
      core::DistributedOptions k_options = dp_options;
      k_options.num_gpus = w.karma_gpus;
      karma_request.planner = k_options.planner;
      karma_request.distributed = k_options;
      const api::Plan karma = engine->plan_or_throw(karma_request);
      const double karma_tput =
          static_cast<double>(global_batch) / karma.iteration_time;
      const double karma_cost = dollars_per_perf(w.karma_gpus, karma_tput);

      if (step == 0) {
        dp_base = dp_cost;
        karma_base = dp_cost;  // both normalized to row 1's DP cost
      }
      table.begin_row();
      table.add_cell(std::to_string(global_batch / 1000) + "." +
                     std::to_string(global_batch % 1000 / 100) + "K");
      table.add_cell(static_cast<std::int64_t>(gpus));
      table.add_cell(dp_cost / dp_base, 3);
      table.add_cell(static_cast<std::int64_t>(w.karma_gpus));
      table.add_cell(karma_batch);
      table.add_cell(karma_cost / karma_base, 3);
    }
    std::printf("%s", table.to_ascii().c_str());
  }
  std::printf(
      "\nExpected shape (Table V): the KARMA column starts below the DP\n"
      "column (cheaper scaling while the OOC penalty is mild), then\n"
      "crosses above it as the per-GPU batch grows far beyond capacity.\n");
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
