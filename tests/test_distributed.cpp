// The 5-stage distributed pipeline (Sec. III-G / Fig. 3) and the
// large-scale analytic baselines.
#include "src/core/distributed.h"

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/parallelism.h"
#include "src/graph/model_zoo.h"

namespace karma::core {
namespace {

const sim::DeviceSpec kDevice = sim::v100_abci();

DistributedOptions base_options(int gpus) {
  DistributedOptions o;
  o.num_gpus = gpus;
  o.iterations = 3;
  o.planner.anneal_iterations = 0;
  return o;
}

TEST(Distributed, ResnetWeightsStayResident) {
  const auto r = plan_data_parallel(graph::make_resnet50(256), kDevice,
                                    base_options(16));
  EXPECT_TRUE(r.weights_resident);
  EXPECT_GT(r.iteration_time, 0.0);
  EXPECT_FALSE(r.exchange->phases.empty());
}

TEST(Distributed, MegatronWeightsAreSwapped) {
  // 2.5B fp16 params cannot stay on a 16 GiB card.
  const auto model = graph::make_transformer(graph::megatron_config(2), 4);
  const auto r = plan_data_parallel(model, kDevice, base_options(128));
  EXPECT_FALSE(r.weights_resident);
  EXPECT_LE(r.trace.peak_resident, kDevice.memory_capacity);
}

TEST(Distributed, FiveStageOpsAllPresent) {
  const auto model = graph::make_transformer(graph::megatron_config(0), 4);
  const auto r = plan_data_parallel(model, kDevice, base_options(32));
  bool has[7] = {};
  for (const auto& op : r.schedule.ops) has[static_cast<int>(op.kind)] = true;
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kForward)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kBackward)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kSwapOut)]);   // stage 3
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kSwapIn)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kAllReduce)]); // stage 4
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kCpuUpdate)]); // stage 5
}

TEST(Distributed, SteadyStateNoSlowerThanTwiceCompute) {
  // The 5-stage pipeline must overlap: steady-state iterations should not
  // degenerate to fully serialized stages.
  const auto model = graph::make_transformer(graph::megatron_config(0), 4);
  const auto r = plan_data_parallel(model, kDevice, base_options(32));
  EXPECT_LT(r.iteration_time, r.first_iteration_time * 2.0);
  EXPECT_GT(r.iteration_time, 0.0);
}

TEST(Distributed, MergedExchangeNoSlowerThanBulk) {
  const auto model = graph::make_resnet50(128);
  auto opts = base_options(64);
  opts.exchange = ExchangeMode::kBulk;
  const auto bulk = plan_data_parallel(model, kDevice, opts);
  opts.exchange = ExchangeMode::kMerged;
  const auto merged = plan_data_parallel(model, kDevice, opts);
  EXPECT_LE(merged.iteration_time, bulk.iteration_time * 1.02);
}

TEST(Distributed, CpuUpdateBeatsDeviceUpdateWhenWeightsSwapped) {
  // Sec. III-G: the trivial workaround (GPU-side update of swapped
  // weights) pays an extra PCIe round trip per block.
  const auto model = graph::make_transformer(graph::megatron_config(0), 4);
  auto opts = base_options(32);
  opts.update = UpdateSite::kCpu;
  const auto cpu = plan_data_parallel(model, kDevice, opts);
  opts.update = UpdateSite::kDevice;
  const auto gpu = plan_data_parallel(model, kDevice, opts);
  EXPECT_LT(cpu.iteration_time, gpu.iteration_time * 1.0001);
}

TEST(Distributed, ZeroShardingReducesIterationTime) {
  // KARMA-on-ZeRO: a smaller per-rank weight shard means less swap
  // traffic and a faster pipeline.
  const auto model = graph::make_transformer(graph::megatron_config(2), 2);
  auto opts = base_options(256);
  const auto plain = plan_data_parallel(model, kDevice, opts);
  opts.weight_shard_fraction = 0.25;
  const auto sharded = plan_data_parallel(model, kDevice, opts);
  EXPECT_LT(sharded.iteration_time, plain.iteration_time * 1.0001);
}

TEST(Distributed, MoreGpusSlowerExchangeSameCompute) {
  const auto model = graph::make_resnet50(128);
  const auto small = plan_data_parallel(model, kDevice, base_options(8));
  const auto large = plan_data_parallel(model, kDevice, base_options(512));
  // Exchange grows with scale but the pipeline absorbs most of it.
  EXPECT_GE(large.iteration_time, small.iteration_time * 0.95);
  EXPECT_LT(large.iteration_time, small.iteration_time * 3.0);
}

TEST(Distributed, PlanValidates) {
  const auto model = graph::make_transformer(graph::megatron_config(0), 4);
  const auto r = plan_data_parallel(model, kDevice, base_options(16));
  EXPECT_NO_THROW(sim::validate_plan(r.schedule));
}

// ---- Bounded per-tier residency (DESIGN.md §9) ----

TEST(Distributed, MultiIterationPipelineAdmitsAgainstBoundedHostLedger) {
  // Regression: this megatron_dp-style multi-iteration pipeline used to
  // rely on the "host tier stays unbounded" carve-out, because gradient-
  // out / CPU-update / weight-refresh traffic broke the ledger's
  // swap-out/swap-in pairing. With per-class residency it must admit
  // against the *bounded* DRAM of the NVMe node and replay every
  // iteration within it.
  const auto model = graph::make_transformer(graph::megatron_config(1), 4);
  const sim::DeviceSpec device = sim::v100_abci_nvme();
  auto options = base_options(64);
  options.iterations = 4;
  const auto r = plan_data_parallel(model, device, options);

  ASSERT_TRUE(r.schedule.hierarchy.has_value());
  const tier::TierSpec& host = r.schedule.hierarchy->spec(tier::Tier::kHost);
  EXPECT_FALSE(host.unbounded()) << "unbounded-host carve-out resurfaced";
  EXPECT_GT(r.schedule.host_baseline_resident, 0)
      << "pinned weight shards missing from the host baseline";
  // The engine's ledger replayed 4 iterations inside the bounded tier:
  // peak includes the pinned shards and never exceeds what was admitted.
  EXPECT_GE(r.trace.peak_host_resident, r.schedule.host_baseline_resident);
  EXPECT_LE(r.trace.peak_host_resident, host.capacity);
  EXPECT_GT(r.iteration_time, 0.0);
  EXPECT_NO_THROW(sim::validate_plan(r.schedule));
}

TEST(Distributed, ShardResidencyOverflowIsRejectedNotAdmitted) {
  // DRAM smaller than the pinned shards + in-flight gradients: no plan
  // may be admitted (previously the carve-out would have waved it
  // through with an unbounded host ledger).
  const auto model = graph::make_transformer(graph::megatron_config(0), 4);
  sim::DeviceSpec device = sim::v100_abci_nvme();
  device.host_capacity = 256_MiB;  // << the fp16 shard residency
  auto options = base_options(16);
  EXPECT_THROW(plan_data_parallel(model, device, options),
               std::runtime_error);
}

TEST(Distributed, ZeroShardingShrinksHostBaseline) {
  // ZeRO-style partitioning shrinks the per-rank pinned master copy, so
  // the host baseline must scale with the shard fraction.
  const auto model = graph::make_transformer(graph::megatron_config(1), 2);
  const sim::DeviceSpec device = sim::v100_abci_nvme();
  auto options = base_options(64);
  const auto plain = plan_data_parallel(model, device, options);
  options.weight_shard_fraction = 0.25;
  const auto sharded = plan_data_parallel(model, device, options);
  EXPECT_GT(plain.schedule.host_baseline_resident, 0);
  EXPECT_LT(sharded.schedule.host_baseline_resident,
            plain.schedule.host_baseline_resident);
  EXPECT_LE(sharded.trace.peak_host_resident, plain.trace.peak_host_resident);
}

TEST(Distributed, SearchStatsCountTheTokensCandidates) {
  // The data-parallel scan scores through the same candidate step as
  // KarmaPlanner, so its artifact reports the effort the token saw.
  const CancelToken token = CancelToken::make();
  const auto r = plan_data_parallel(graph::make_resnet50(256), kDevice,
                                    base_options(16), token);
  const SearchStats& stats = r.search_stats;
  EXPECT_GT(stats.candidates, 0);
  EXPECT_EQ(stats.candidates, stats.simulations + stats.memo_hits);
  EXPECT_GT(stats.search_seconds, 0.0);
  EXPECT_EQ(stats.candidates, token.candidates());
  EXPECT_EQ(stats.simulations, token.simulations());
}

/// Iteration `it` of a data-parallel schedule without its stage 3-5 and
/// weight-shard ops: after_op remapped through that filter, the iteration
/// tag cleared, and display stages counted from the iteration's first.
sim::Plan algorithm1_ops(const sim::Plan& schedule, int it) {
  sim::Plan out;
  std::vector<int> kept(schedule.ops.size(), -1);
  int stage_base = -1;
  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    sim::Op op = schedule.ops[i];
    if (op.iteration != it || op.kind == sim::OpKind::kAllReduce ||
        op.residency != tier::Residency::kActivation)
      continue;
    if (stage_base < 0) stage_base = schedule.stage_of[i] - 1;
    kept[i] = static_cast<int>(out.ops.size());
    if (op.after_op >= 0)
      op.after_op = kept[static_cast<std::size_t>(op.after_op)];
    op.iteration = 0;
    out.ops.push_back(op);
    out.stage_of.push_back(schedule.stage_of[i] - stage_base);
  }
  return out;
}

void expect_same_ops(const sim::Plan& actual, const sim::Plan& expected) {
  ASSERT_EQ(actual.ops.size(), expected.ops.size());
  EXPECT_EQ(actual.stage_of, expected.stage_of);
  for (std::size_t i = 0; i < actual.ops.size(); ++i) {
    SCOPED_TRACE("op " + std::to_string(i));
    const sim::Op& a = actual.ops[i];
    const sim::Op& e = expected.ops[i];
    EXPECT_EQ(a.kind, e.kind);
    EXPECT_EQ(a.block, e.block);
    EXPECT_EQ(a.tier, e.tier);
    EXPECT_EQ(a.residency, e.residency);
    EXPECT_EQ(a.bytes, e.bytes);
    EXPECT_EQ(a.alloc, e.alloc);
    EXPECT_EQ(a.free, e.free);
    EXPECT_EQ(a.duration, e.duration);
    EXPECT_EQ(a.retains, e.retains);
    EXPECT_EQ(a.iteration, e.iteration);
    EXPECT_EQ(a.after_op, e.after_op);
  }
}

TEST(Distributed, EveryIterationIsAlgorithmOnePlusStagesThreeToFive) {
  // Property: stripping a rank's stage 3-5 and weight-shard ops from any
  // of its iterations leaves exactly the single-GPU schedule of the same
  // blocks and policies (Sec. III-G: stages 1-2 are as single-GPU).
  struct Case {
    std::string name;
    graph::Model model;
    DistributedOptions options;
  };
  std::vector<Case> cases;
  const auto add = [&](std::string name, graph::Model model, int iterations,
                       const std::function<void(DistributedOptions&)>& tweak =
                           {}) {
    DistributedOptions options = base_options(16);
    options.iterations = iterations;
    if (tweak) tweak(options);
    cases.push_back({std::move(name), std::move(model), options});
  };
  add("resnet50-256", graph::make_resnet50(256), 2);
  add("resnet50-512/window-1", graph::make_resnet50(512), 1,
      [](DistributedOptions& o) { o.planner.schedule.prefetch_window = 1; });
  add("unet-16", graph::make_unet(16), 2);
  add("vgg16-128/device-update", graph::make_vgg16(128), 1,
      [](DistributedOptions& o) { o.update = UpdateSite::kDevice; });
  add("megatron0-4/bulk", graph::make_transformer(graph::megatron_config(0), 4),
      2, [](DistributedOptions& o) { o.exchange = ExchangeMode::kBulk; });
  add("megatron2-4", graph::make_transformer(graph::megatron_config(2), 4), 2);
  add("megatron2-4/per-block",
      graph::make_transformer(graph::megatron_config(2), 4), 1,
      [](DistributedOptions& o) { o.exchange = ExchangeMode::kPerBlock; });

  bool saw_resident = false, saw_swapped = false;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const PlanResult r = plan_data_parallel(c.model, kDevice, c.options);
    (r.weights_resident ? saw_resident : saw_swapped) = true;
    // The reference device only lifts the weight check, which the
    // weight-swapping regime exists to get round; ops never read it.
    sim::DeviceSpec roomy = kDevice;
    roomy.memory_capacity *= 1024;
    const sim::Plan single = build_training_plan(
        c.model, roomy, r.schedule.blocks, r.policies, "single-gpu",
        c.options.planner.schedule, &r.schedule.costs);
    for (int it = 0; it < c.options.iterations; ++it) {
      SCOPED_TRACE("iteration " + std::to_string(it));
      expect_same_ops(algorithm1_ops(r.schedule, it), single);
    }
  }
  EXPECT_TRUE(saw_resident);
  EXPECT_TRUE(saw_swapped);
}

// ---- Analytic parallelism baselines ----

TEST(Parallelism, HybridCostComponentsPositive) {
  baselines::HybridConfig cfg;
  cfg.model = graph::megatron_config(4);  // 8.3B
  cfg.num_gpus = 1024;
  cfg.mp_ways = 16;
  cfg.batch_per_group = 8;
  const auto cost = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  EXPECT_GT(cost.compute, 0.0);
  EXPECT_GT(cost.mp_comm, 0.0);
  EXPECT_GT(cost.dp_comm, 0.0);
  EXPECT_DOUBLE_EQ(cost.iteration, cost.compute + cost.mp_comm + cost.dp_comm);
  EXPECT_EQ(cost.samples_per_iteration, 64 * 8);
}

TEST(Parallelism, PhasedExchangeReducesDpComm) {
  baselines::HybridConfig cfg;
  cfg.model = graph::megatron_config(2);
  cfg.num_gpus = 512;
  cfg.mp_ways = 4;
  cfg.batch_per_group = 8;
  const auto plain = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  cfg.phased_exchange = true;
  const auto phased = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  EXPECT_LT(phased.dp_comm, plain.dp_comm);
  EXPECT_DOUBLE_EQ(phased.compute, plain.compute);
}

TEST(Parallelism, MpCommGrowsWithMpWays) {
  baselines::HybridConfig cfg;
  cfg.model = graph::megatron_config(2);
  cfg.num_gpus = 512;
  cfg.batch_per_group = 8;
  cfg.mp_ways = 2;
  const auto mp2 = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  cfg.mp_ways = 8;
  const auto mp8 = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  EXPECT_GT(mp8.mp_comm, mp2.mp_comm);
  EXPECT_LT(mp8.compute, mp2.compute);  // more slicing, less per-GPU work
}

TEST(Parallelism, ZeroCostBetweenPlainAndNothing) {
  baselines::HybridConfig cfg;
  cfg.model = graph::turing_nlg_config();
  cfg.num_gpus = 1024;
  cfg.mp_ways = 16;
  cfg.batch_per_group = 8;
  const auto hybrid = baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net());
  const auto zero = baselines::zero_cost(cfg, kDevice, net::abci_net());
  EXPECT_DOUBLE_EQ(zero.compute, hybrid.compute);
  EXPECT_GT(zero.iteration, 0.0);
}

TEST(Parallelism, EpochHours) {
  baselines::HybridCost cost;
  cost.iteration = 3.6;  // seconds
  cost.samples_per_iteration = 1000;
  // 7.2M samples -> 7200 iterations -> 7.2 hours * 3.6/3600...
  EXPECT_NEAR(baselines::epoch_hours(cost, 7'200'000), 7.2, 1e-9);
  cost.samples_per_iteration = 0;
  EXPECT_THROW(baselines::epoch_hours(cost, 1), std::invalid_argument);
}

TEST(Parallelism, InvalidConfigsRejected) {
  baselines::HybridConfig cfg;
  cfg.model = graph::megatron_config(0);
  cfg.num_gpus = 4;
  cfg.mp_ways = 8;  // more MP ways than GPUs
  EXPECT_THROW(baselines::megatron_hybrid_cost(cfg, kDevice, net::abci_net()),
               std::invalid_argument);
}

}  // namespace
}  // namespace karma::core
