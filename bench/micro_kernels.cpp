// Google-benchmark micro-benchmarks for the substrates themselves: the
// collective cost models, the discrete-event engine, the planner search,
// the analytic occupancy model, and the numeric twin's kernels. These are
// regression guards for the tooling (the paper's figures come from the
// per-figure binaries).
#include <benchmark/benchmark.h>

#include "src/api/engine.h"
#include "src/baselines/strategies.h"
#include "src/core/occupancy.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/net/phased_exchange.h"
#include "src/train/ooc_exec.h"
#include "src/train/synthetic.h"

namespace karma {
namespace {

void BM_HierarchicalAllreduce(benchmark::State& state) {
  const net::NetSpec net = net::abci_net();
  const int gpus = static_cast<int>(state.range(0));
  Seconds acc = 0.0;
  for (auto _ : state) {
    acc += net::hierarchical_allreduce_time(net, gpus, 64 << 20);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HierarchicalAllreduce)->Arg(4)->Arg(64)->Arg(2048);

void BM_MergedExchangePlan(benchmark::State& state) {
  const net::NetSpec net = net::abci_net();
  const auto blocks = static_cast<std::size_t>(state.range(0));
  const std::vector<Bytes> grads(blocks, 4 << 20);
  const std::vector<Seconds> bwd(blocks, 0.01);
  for (auto _ : state) {
    auto plan = net::merged_exchange(net, 512, grads, bwd);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_MergedExchangePlan)->Arg(16)->Arg(128);

void BM_EngineRunVgg(benchmark::State& state) {
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model model = graph::make_vgg16(96);
  const auto blocks = sim::uniform_blocks(model, 4);
  std::vector<core::BlockPolicy> policies(blocks.size(),
                                          core::BlockPolicy::kSwap);
  policies.back() = core::BlockPolicy::kResident;
  const sim::Plan plan =
      core::build_training_plan(model, device, blocks, policies, "bench");
  const sim::Engine engine(device);
  for (auto _ : state) {
    auto trace = engine.run(plan);
    benchmark::DoNotOptimize(trace);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(plan.ops.size()));
}
BENCHMARK(BM_EngineRunVgg);

void BM_PlannerResnet50(benchmark::State& state) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(512);
  request.device = sim::v100_abci();
  request.planner.anneal_iterations = static_cast<int>(state.range(0));
  const auto engine = api::Engine::create();
  for (auto _ : state) {
    auto result = engine->plan(request);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PlannerResnet50)->Arg(0)->Arg(60);

void BM_OccupancyEstimate(benchmark::State& state) {
  const auto nb = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Block> blocks;
  std::vector<sim::BlockCost> costs;
  for (std::size_t b = 0; b < nb; ++b) {
    blocks.push_back({static_cast<int>(b), static_cast<int>(b) + 1});
    sim::BlockCost c;
    c.bwd_time = 0.01;
    c.act_bytes = 64 << 20;
    costs.push_back(c);
  }
  const std::vector<bool> swapped(nb, true);
  const sim::DeviceSpec device = sim::v100_abci();
  for (auto _ : state) {
    auto est = core::estimate_backward_occupancy(blocks, costs, swapped,
                                                 device, 4LL << 30);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_OccupancyEstimate)->Arg(16)->Arg(256);

void BM_TrainMatmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const train::Tensor a = train::Tensor::uniform({n, n}, rng, 1.0f);
  const train::Tensor b = train::Tensor::uniform({n, n}, rng, 1.0f);
  train::Tensor out({n, n});
  for (auto _ : state) {
    train::matmul(a, b, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_TrainMatmul)->Arg(64)->Arg(128);

void BM_OocTrainStep(benchmark::State& state) {
  Rng rng(7);
  train::Sequential net = train::make_mlp({64, 128, 128, 10}, rng);
  train::OocExecutor exec(
      &net,
      train::uniform_ooc_blocks(net.size(), 2, core::BlockPolicy::kSwap),
      Bytes{1} << 30);
  train::SGD opt(0.01f);
  Rng data_rng(9);
  const auto batch = train::make_synthetic_batch(32, {64}, 10, data_rng);
  for (auto _ : state) {
    auto stats = exec.train_step(batch.inputs, batch.labels, opt);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_OocTrainStep);

}  // namespace
}  // namespace karma

BENCHMARK_MAIN();
