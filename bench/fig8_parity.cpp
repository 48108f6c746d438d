// Fig. 8: parity comparison — same number of GPUs for the MP+DP hybrid
// and for data-parallel KARMA — reported as time per epoch (hours) over
// the 7.2M-sample OpenWebText-scale dataset (Table III).
//
// Three panels, as in the paper:
//   (a) Megatron-LM 2.5B (H=1920, A=20, L=54):   128..2048 GPUs
//   (b) Megatron-LM 8.3B (H=3072, A=32, L=72):   512..2048 GPUs
//   (c) Turing-NLG 17B  (H=4256, A=28, L=78):    512..2048 GPUs,
//       ZeRO vs DP KARMA vs KARMA-on-ZeRO (paper: 1.35x over ZeRO).
#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/baselines/parallelism.h"

namespace karma::bench {
namespace {

constexpr std::int64_t kSamplesPerEpoch = 7'200'000;  // OpenWT, Table III
constexpr std::int64_t kBatchPerGroup = 8;

double karma_epoch_hours(const graph::TransformerConfig& cfg, int gpus,
                         double shard_fraction = 1.0) {
  api::PlanRequest request;
  request.model = graph::make_transformer(cfg, kBatchPerGroup);
  request.device = sim::v100_abci();
  core::DistributedOptions options;
  options.num_gpus = gpus;
  options.iterations = 2;
  options.planner.anneal_iterations = 0;  // superseded by request.planner
  request.planner.anneal_iterations = 0;
  options.weight_shard_fraction = shard_fraction;
  request.distributed = options;
  const api::Plan result = api::Engine::create()->plan_or_throw(request);
  const double samples_per_iter =
      static_cast<double>(gpus) * kBatchPerGroup;
  return static_cast<double>(kSamplesPerEpoch) / samples_per_iter *
         result.iteration_time / 3600.0;
}

void megatron_panel(const char* title, int config_index, int mp_ways,
                    const std::vector<int>& gpu_counts) {
  const sim::DeviceSpec device = sim::v100_abci();
  const net::NetSpec net = net::abci_net();
  const graph::TransformerConfig cfg = graph::megatron_config(config_index);

  print_section(title);
  Table table({"GPUs", "MP+DP [h]", "MP+DP opt.ex. [h]", "DP KARMA [h]"});
  for (const int gpus : gpu_counts) {
    baselines::HybridConfig hybrid;
    hybrid.model = cfg;
    hybrid.num_gpus = gpus;
    hybrid.mp_ways = mp_ways;
    hybrid.batch_per_group = kBatchPerGroup;
    const auto plain = baselines::megatron_hybrid_cost(hybrid, device, net);
    hybrid.phased_exchange = true;
    const auto opt = baselines::megatron_hybrid_cost(hybrid, device, net);

    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(gpus));
    table.add_cell(baselines::epoch_hours(plain, kSamplesPerEpoch), 2);
    table.add_cell(baselines::epoch_hours(opt, kSamplesPerEpoch), 2);
    table.add_cell(karma_epoch_hours(cfg, gpus), 2);
  }
  std::printf("%s", table.to_ascii().c_str());
}

void turing_panel() {
  const sim::DeviceSpec device = sim::v100_abci();
  const net::NetSpec net = net::abci_net();
  const graph::TransformerConfig cfg = graph::turing_nlg_config();

  print_section("Fig. 8(c) — Turing-NLG 17B: ZeRO vs KARMA vs ZeRO+KARMA");
  Table table({"GPUs", "ZeRO (MP+DP) [h]", "DP KARMA [h]", "ZeRO+KARMA [h]",
               "ZeRO+KARMA speedup vs ZeRO"});
  double speedup_at_2048 = 0.0;
  for (const int gpus : {512, 1024, 2048}) {
    baselines::HybridConfig hybrid;
    hybrid.model = cfg;
    hybrid.num_gpus = gpus;
    hybrid.mp_ways = 16;  // ZeRO's reference hybrid for 17B on 16 GiB cards
    hybrid.batch_per_group = kBatchPerGroup;
    const auto zero = baselines::zero_cost(hybrid, device, net);
    const double zero_hours = baselines::epoch_hours(zero, kSamplesPerEpoch);

    const double karma_hours = karma_epoch_hours(cfg, gpus);
    // KARMA-on-ZeRO: ZeRO partitions weight state over the 16-way group,
    // shrinking the per-rank swap shard KARMA must move.
    const double combo_hours = karma_epoch_hours(cfg, gpus, 1.0 / 16.0);

    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(gpus));
    table.add_cell(zero_hours, 2);
    table.add_cell(karma_hours, 2);
    table.add_cell(combo_hours, 2);
    table.add_cell(format_double(zero_hours / combo_hours, 2) + "x");
    if (gpus == 2048) speedup_at_2048 = zero_hours / combo_hours;
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf("\nZeRO+KARMA speedup over ZeRO at 2048 GPUs: %.2fx "
              "(paper: 1.35x)\n", speedup_at_2048);
}

int run() {
  megatron_panel("Fig. 8(a) — Megatron-LM 2.5B parity (time per epoch)", 2,
                 4, {128, 256, 512, 1024, 2048});
  megatron_panel("Fig. 8(b) — Megatron-LM 8.3B parity (time per epoch)", 4,
                 16, {512, 1024, 2048});
  turing_panel();
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
