// Ablations over KARMA's design choices (DESIGN.md §4 "Ablations"):
//  A. capacity-based tail residency vs eager swap-everything (Fig. 2a/2b)
//  B. recompute interleave on/off (Fig. 2c / Opt. Problem 2)
//  C. prefetch window depth (liveness-bounded greediness)
//  D. gradient-exchange mode: bulk vs per-block vs MG-WFBP merged
//  E. weight-update site: CPU (stage 5) vs device (the trivial workaround
//     Sec. III-G rejects)
//  F. host-interconnect sensitivity: PCIe gen3 vs NVLink-class link
#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/baselines/strategies.h"

namespace karma::bench {
namespace {

/// All ablation rows plan through an api::Engine. The planner
/// knobs embedded in DistributedOptions are lifted onto the request (the
/// facade's single set of planner options supersedes the embedded copy).
Seconds dp_iteration_time(const graph::Model& model,
                          const sim::DeviceSpec& device,
                          const core::DistributedOptions& options) {
  api::PlanRequest request;
  request.model = model;
  request.device = device;
  request.planner = options.planner;
  request.distributed = options;
  return api::Engine::create()->plan_or_throw(request).iteration_time;
}

void ablation_capacity_vs_eager() {
  print_section("A. capacity-based vs eager swapping (ResNet-200)");
  const sim::DeviceSpec device = sim::v100_abci();
  Table table({"batch", "eager (vDNN-style) [s]", "capacity (KARMA) [s]",
               "speedup"});
  for (const std::int64_t batch : {8, 12, 16, 24}) {
    const graph::Model model = graph::make_resnet200(batch);
    const auto eager = baselines::plan_vdnnpp(model, device);
    const auto capacity = baselines::plan_karma(model, device);
    if (!eager || !capacity) continue;
    table.begin_row();
    table.add_cell(batch);
    table.add_cell(eager->iteration_time, 3);
    table.add_cell(capacity->iteration_time, 3);
    table.add_cell(
        format_double(eager->iteration_time / capacity->iteration_time, 2) +
        "x");
  }
  std::printf("%s", table.to_ascii().c_str());
}

void ablation_recompute() {
  print_section("B. recompute interleave on/off");
  const sim::DeviceSpec device = sim::v100_abci();
  Table table({"model", "batch", "KARMA [s]", "KARMA+recompute [s]",
               "speedup"});
  const struct {
    const char* name;
    graph::Model (*make)(std::int64_t);
    std::int64_t batch;
  } cases[] = {{"ResNet-50", &graph::make_resnet50, 512},
               {"VGG16", &graph::make_vgg16, 96},
               {"ResNet-200", &graph::make_resnet200, 12},
               {"U-Net", &graph::make_unet, 24}};
  for (const auto& c : cases) {
    const graph::Model model = c.make(c.batch);
    const auto plain = baselines::plan_karma(model, device);
    const auto recomp = baselines::plan_karma_recompute(model, device);
    if (!plain || !recomp) continue;
    table.begin_row();
    table.add_cell(c.name);
    table.add_cell(c.batch);
    table.add_cell(plain->iteration_time, 3);
    table.add_cell(recomp->iteration_time, 3);
    table.add_cell(
        format_double(plain->iteration_time / recomp->iteration_time, 2) +
        "x");
  }
  std::printf("%s", table.to_ascii().c_str());
}

void ablation_prefetch_window() {
  print_section("C. prefetch window depth (ResNet-200, batch 16, all-swap)");
  const sim::DeviceSpec device = sim::v100_abci();
  const graph::Model model = graph::make_resnet200(16);
  Table table({"window", "iteration [s]", "occupancy"});
  for (const int window : {1, 2, 3, 4, 6, 8}) {
    api::PlanRequest request;
    request.model = model;
    request.device = device;
    request.planner.enable_recompute = false;
    request.planner.anneal_iterations = 0;
    request.planner.schedule.prefetch_window = window;
    request.probe_feasible_batch = false;
    const auto result = api::Engine::create()->plan(request);
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(window));
    if (result) {
      table.add_cell(result->iteration_time, 3);
      table.add_cell(result->occupancy, 3);
    } else {
      table.add_cell("infeasible");
      table.add_cell("-");
    }
  }
  std::printf("%s", table.to_ascii().c_str());
}

void ablation_exchange_modes() {
  print_section("D. gradient exchange: bulk vs per-block vs merged");
  const sim::DeviceSpec device = sim::v100_abci();
  Table table({"workload", "GPUs", "bulk [s]", "per-block [s]",
               "merged (MG-WFBP) [s]"});
  const struct {
    const char* name;
    graph::Model model;
    int gpus;
  } cases[] = {
      {"ResNet-50 b=128", graph::make_resnet50(128), 64},
      {"ResNet-50 b=128", graph::make_resnet50(128), 512},
      {"Megatron 0.7B b=8",
       graph::make_transformer(graph::megatron_config(0), 8), 64},
  };
  for (const auto& c : cases) {
    core::DistributedOptions options;
    options.num_gpus = c.gpus;
    options.iterations = 2;
    options.planner.anneal_iterations = 0;
    double t[3] = {};
    int i = 0;
    for (const auto mode : {core::ExchangeMode::kBulk,
                            core::ExchangeMode::kPerBlock,
                            core::ExchangeMode::kMerged}) {
      options.exchange = mode;
      t[i++] = dp_iteration_time(c.model, device, options);
    }
    table.begin_row();
    table.add_cell(c.name);
    table.add_cell(static_cast<std::int64_t>(c.gpus));
    table.add_cell(t[0], 3);
    table.add_cell(t[1], 3);
    table.add_cell(t[2], 3);
  }
  std::printf("%s", table.to_ascii().c_str());
}

void ablation_update_site() {
  print_section("E. weight-update site: CPU (KARMA) vs device");
  const sim::DeviceSpec device = sim::v100_abci();
  Table table({"workload", "CPU update [s]", "device update [s]",
               "CPU advantage"});
  const struct {
    const char* name;
    graph::Model model;
    int gpus;
  } cases[] = {
      {"ResNet-50 b=256 (weights resident)", graph::make_resnet50(256), 16},
      {"Megatron 0.7B b=8 (weights swapped)",
       graph::make_transformer(graph::megatron_config(0), 8), 32},
  };
  for (const auto& c : cases) {
    core::DistributedOptions options;
    options.num_gpus = c.gpus;
    options.iterations = 2;
    options.planner.anneal_iterations = 0;
    options.update = core::UpdateSite::kCpu;
    const double cpu = dp_iteration_time(c.model, device, options);
    options.update = core::UpdateSite::kDevice;
    const double gpu = dp_iteration_time(c.model, device, options);
    table.begin_row();
    table.add_cell(c.name);
    table.add_cell(cpu, 3);
    table.add_cell(gpu, 3);
    table.add_cell(format_double(gpu / cpu, 2) + "x");
  }
  std::printf("%s", table.to_ascii().c_str());
}

void ablation_interconnect() {
  print_section("F. host interconnect sensitivity (ResNet-200, batch 16)");
  const graph::Model model = graph::make_resnet200(16);
  Table table({"link", "KARMA [s]", "KARMA+recompute [s]"});
  for (const auto& device : {sim::v100_abci(), sim::v100_nvlink_host()}) {
    const auto plain = baselines::plan_karma(model, device);
    const auto recomp = baselines::plan_karma_recompute(model, device);
    table.begin_row();
    table.add_cell(device.name);
    table.add_cell(plain ? format_double(plain->iteration_time, 3) : "-");
    table.add_cell(recomp ? format_double(recomp->iteration_time, 3) : "-");
  }
  std::printf("%s", table.to_ascii().c_str());
  std::printf(
      "\nExpected: a faster host link shrinks the gap between pure\n"
      "swapping and the recompute interleave (recompute pays off exactly\n"
      "when the interconnect is the bottleneck, Sec. III-F).\n");
}

int run() {
  ablation_capacity_vs_eager();
  ablation_recompute();
  ablation_prefetch_window();
  ablation_exchange_modes();
  ablation_update_site();
  ablation_interconnect();
  return 0;
}

}  // namespace
}  // namespace karma::bench

int main() { return karma::bench::run(); }
