// The independent trace-invariant checker, cross-checking the engine on
// planner output across models and strategies (a second implementation of
// the replay semantics; disagreement = bug in one of them).
#include "src/sim/trace_check.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "src/baselines/strategies.h"
#include "src/core/distributed.h"
#include "src/graph/model_zoo.h"

namespace karma::sim {
namespace {

TEST(TraceCheck, CleanTracePasses) {
  const graph::Model model = graph::make_vgg16(64);
  const auto result = baselines::plan_karma_recompute(model, v100_abci());
  ASSERT_TRUE(result);
  const auto violations =
      check_trace_invariants(result->schedule, result->trace);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(TraceCheck, DetectsTamperedOverlap) {
  const graph::Model model = graph::make_vgg16(64);
  const auto result = baselines::plan_karma(model, v100_abci());
  ASSERT_TRUE(result);
  ExecutionTrace tampered = result->trace;
  // Pull the second compute op's start before the first one's end.
  int first = -1;
  for (std::size_t i = 0; i < tampered.records.size(); ++i) {
    if (stream_of(tampered.records[i].kind) != Stream::kCompute) continue;
    if (first < 0) {
      first = static_cast<int>(i);
    } else {
      tampered.records[i].start =
          tampered.records[static_cast<std::size_t>(first)].start;
      break;
    }
  }
  const auto violations = check_trace_invariants(result->schedule, tampered);
  EXPECT_FALSE(violations.empty());
}

TEST(TraceCheck, DetectsMemoryOverflow) {
  const graph::Model model = graph::make_vgg16(64);
  const auto result = baselines::plan_karma(model, v100_abci());
  ASSERT_TRUE(result);
  Plan squeezed = result->schedule;
  squeezed.capacity /= 64;  // trace was produced for the real capacity
  const auto violations = check_trace_invariants(squeezed, result->trace);
  bool has_memory_violation = false;
  for (const auto& v : violations)
    has_memory_violation |= v.find("memory exceeds") != std::string::npos;
  EXPECT_TRUE(has_memory_violation);
}

TEST(TraceCheck, KarmaRowsIgnoreTheUserPlanCache) {
  // A plan loaded from a disk cache carries no per-op trace records, so
  // the figure rows must never read one, whatever KARMA_CACHE_DIR holds.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("karma-trace-check-cache-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const char* outer = std::getenv("KARMA_CACHE_DIR");
  const std::string saved = outer ? outer : "";
  ASSERT_EQ(setenv("KARMA_CACHE_DIR", dir.c_str(), 1), 0);
  const graph::Model model = graph::make_vgg16(64);
  const auto first = baselines::plan_karma(model, v100_abci());
  const auto second = baselines::plan_karma(model, v100_abci());
  if (outer)
    setenv("KARMA_CACHE_DIR", saved.c_str(), 1);
  else
    unsetenv("KARMA_CACHE_DIR");
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(first);
  ASSERT_TRUE(second);
  EXPECT_EQ(second->trace.records.size(), second->schedule.ops.size());
  EXPECT_TRUE(check_trace_invariants(second->schedule, second->trace).empty());
}

class StrategyTraces : public ::testing::TestWithParam<int> {};

TEST_P(StrategyTraces, AllStrategiesProduceConsistentTraces) {
  const auto& entry =
      baselines::all_strategies()[static_cast<std::size_t>(GetParam())];
  for (const auto& model :
       {graph::make_resnet50(384), graph::make_resnet200(12),
        graph::make_unet(24)}) {
    const auto result = entry.plan(model, v100_abci());
    if (!result) continue;
    const auto violations =
        check_trace_invariants(result->schedule, result->trace);
    for (const auto& v : violations)
      ADD_FAILURE() << entry.name << " on " << model.name() << ": " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(All, StrategyTraces, ::testing::Range(0, 9));

TEST(TraceCheck, DistributedPipelineTraceConsistent) {
  const graph::Model model =
      graph::make_transformer(graph::megatron_config(0), 4);
  core::DistributedOptions options;
  options.num_gpus = 32;
  options.iterations = 2;
  options.planner.anneal_iterations = 0;
  const auto result =
      core::plan_data_parallel(model, v100_abci(), options);
  const auto violations = check_trace_invariants(result.schedule, result.trace);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

// ---- Distributed tier-tagged replay (DESIGN.md §9) ----

core::PlanResult tiered_distributed_result(int iterations = 3) {
  const graph::Model model =
      graph::make_transformer(graph::megatron_config(0), 4);
  core::DistributedOptions options;
  options.num_gpus = 32;
  options.iterations = iterations;
  options.planner.anneal_iterations = 0;
  return core::plan_data_parallel(model, v100_abci_nvme(), options);
}

TEST(TraceCheck, DistributedTieredTraceReplaysBoundedHostLedger) {
  // Multi-iteration pipeline on a bounded-host device: gradient-out /
  // CPU-update / weight-refresh traffic must replay cleanly against the
  // bounded per-tier ledger (no phantom overflow from the broken
  // swap-out/swap-in pairing the old carve-out worked around).
  const auto result = tiered_distributed_result();
  ASSERT_TRUE(result.schedule.hierarchy.has_value());
  ASSERT_FALSE(result.schedule.hierarchy->spec(tier::Tier::kHost).unbounded())
      << "host tier must be bounded — the unbounded carve-out is gone";
  EXPECT_GT(result.schedule.host_baseline_resident, 0);
  const auto violations = check_trace_invariants(result.schedule, result.trace);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(TraceCheck, DetectsHostTierOverflowWhenHierarchyShrinks) {
  // The same trace against a host tier too small for the pinned shards
  // plus in-flight gradients must be flagged.
  auto result = tiered_distributed_result();
  ASSERT_TRUE(result.schedule.hierarchy.has_value());
  std::vector<tier::TierSpec> tiers = result.schedule.hierarchy->tiers();
  for (auto& t : tiers)
    if (t.tier == tier::Tier::kHost)
      t.capacity = result.schedule.host_baseline_resident;  // no room for grads
  result.schedule.hierarchy = tier::StorageHierarchy(std::move(tiers));
  const auto violations = check_trace_invariants(result.schedule, result.trace);
  bool found = false;
  for (const auto& v : violations)
    found |= v.find("'host' exceeds capacity") != std::string::npos;
  EXPECT_TRUE(found) << "shrunken host tier not flagged";
}

TEST(TraceCheck, DetectsGradientNeverConsumedByAnUpdate) {
  // A hand-built trace with a gradient-out but no update leaks gradient
  // residency — the pairing violation the class-aware replay exists to
  // catch.
  Plan plan;
  plan.strategy = "leaky";
  plan.blocks = {{0, 1}};
  BlockCost cost;
  cost.act_bytes = 256;
  cost.grad_bytes = 512;
  plan.costs = {cost};
  plan.capacity = 4096;
  plan.hierarchy = tier::test_hierarchy();

  Op gout;
  gout.kind = OpKind::kSwapOut;
  gout.block = 0;
  gout.residency = tier::Residency::kGradient;
  gout.bytes = 512;
  plan.ops = {gout};

  ExecutionTrace trace;
  OpRecord rec;
  rec.op_index = 0;
  rec.kind = OpKind::kSwapOut;
  rec.block = 0;
  rec.start = 0.0;
  rec.end = 1.0;
  trace.records = {rec};

  const auto violations = check_trace_invariants(plan, trace);
  bool found = false;
  for (const auto& v : violations)
    found |= v.find("gradient bytes never consumed") != std::string::npos;
  EXPECT_TRUE(found) << "gradient leak not flagged";
}

TEST(TraceCheck, WeightShardTrafficDoesNotChargeTheLedger) {
  // Weight-shard swap-ins read the pinned host master copy: a trace full
  // of them must not be misread as activation traffic (which would drive
  // the replayed level negative or overflow a tiny host tier).
  Plan plan;
  plan.strategy = "shard-reads";
  plan.blocks = {{0, 1}};
  BlockCost cost;
  cost.act_bytes = 256;
  cost.param_bytes = 700;
  plan.costs = {cost};
  plan.capacity = 4096;
  plan.host_baseline_resident = 700;  // pinned master shard
  // Host tier of 1000 B: the pinned 700 B fit, but double-charging the
  // 700 B swap-in on top would overflow.
  tier::TierSpec host;
  host.tier = tier::Tier::kHost;
  host.capacity = 1000;
  host.read_bw = host.write_bw = 1.0;
  tier::TierSpec nvme;
  nvme.tier = tier::Tier::kNvme;
  nvme.capacity = 10000;
  nvme.read_bw = nvme.write_bw = 1.0;
  plan.hierarchy = tier::three_tier(4096, host, nvme);

  Op win;
  win.kind = OpKind::kSwapIn;
  win.block = 0;
  win.residency = tier::Residency::kWeightShard;
  win.bytes = 700;
  win.alloc = 700;
  Op wout;
  wout.kind = OpKind::kSwapOut;
  wout.block = 0;
  wout.residency = tier::Residency::kWeightShard;
  wout.bytes = 700;
  plan.ops = {win, wout};

  ExecutionTrace trace;
  OpRecord r0;
  r0.op_index = 0;
  r0.kind = OpKind::kSwapIn;
  r0.start = 0.0;
  r0.end = 1.0;
  OpRecord r1;
  r1.op_index = 1;
  r1.kind = OpKind::kSwapOut;
  r1.start = 1.0;
  r1.end = 2.0;
  trace.records = {r0, r1};

  const auto violations = check_trace_invariants(plan, trace);
  for (const auto& v : violations) ADD_FAILURE() << v;
}

}  // namespace
}  // namespace karma::sim
