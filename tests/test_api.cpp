// karma::api::Engine planning: artifacts that map the search layers'
// results field by field, deterministic JSON round-trips, executor
// binding, structured infeasibility, the optimizer reserved-host
// pre-charge, and the golden plan-format fixture (regenerate with
// KARMA_REGEN_GOLDEN=1 ./test_api).
#include <gtest/gtest.h>

#include <cmath>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/api/plan_io.h"
#include "src/api/engine.h"
#include "src/core/distributed.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/train/synthetic.h"
#include "src/util/json.h"

namespace karma::api {
namespace {

PlanRequest resnet_request(std::int64_t batch = 512) {
  PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = 30;
  request.probe_feasible_batch = false;
  return request;
}

/// A linear chain whose per-layer activation bytes are directly
/// controlled: input + `layers` FC layers of `width` features at `batch`.
graph::Model chain_model(int layers, std::int64_t batch, std::int64_t width) {
  graph::Model model("chain-" + std::to_string(layers));
  graph::Layer input;
  input.name = "input";
  input.kind = graph::LayerKind::kInput;
  input.in_shape = input.out_shape = graph::TensorShape({batch, width});
  model.add_layer(std::move(input));
  for (int i = 0; i < layers; ++i) {
    graph::Layer fc;
    fc.name = "fc" + std::to_string(i);
    fc.kind = graph::LayerKind::kFullyConnected;
    fc.in_shape = fc.out_shape = graph::TensorShape({batch, width});
    fc.weight_elems = 64;  // negligible: activations dominate
    model.add_layer(std::move(fc));
  }
  return model;
}

/// The artifact JSON of a schedule and an exchange alone (neither has a
/// serializer of its own).
std::string json_of(const sim::Plan& schedule,
                    const std::optional<net::ExchangePlan>& exchange) {
  Plan plan;
  plan.schedule = schedule;
  plan.exchange = exchange;
  return plan.to_json();
}

/// `plan` carries exactly the fields of the search result `r`.
void expect_artifact_of(const Plan& plan, const core::PlanResult& r) {
  EXPECT_EQ(json_of(plan.schedule, plan.exchange), json_of(r.plan, r.exchange));
  EXPECT_EQ(plan.policies, r.policies);
  EXPECT_EQ(plan.iteration_time, r.iteration_time);
  EXPECT_EQ(plan.first_iteration_time, r.first_iteration_time);
  EXPECT_EQ(plan.occupancy, r.occupancy);
  EXPECT_EQ(plan.weights_resident, r.weights_resident);
  EXPECT_EQ(plan.distributed(), r.exchange.has_value());
}

// ---------------------------------------------------------------------------
// Engine planning guarantees: bit-stable planning, a structurally complete
// distributed pipeline, and artifacts that carry exactly what the search
// layers returned.
// ---------------------------------------------------------------------------

TEST(Session, PlanningIsDeterministicToTheByte) {
  const PlanRequest request = resnet_request();
  const auto a = Engine::create()->plan(request);
  const auto b = Engine::create()->plan(request);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Equal requests plan to byte-identical artifacts (ops, policies,
  // metrics — everything the JSON schema captures).
  EXPECT_EQ(a->to_json(), b->to_json());
  EXPECT_EQ(a->iteration_time, b->iteration_time);
  EXPECT_EQ(a->policies, b->policies);
  // The artifact is the direct KarmaPlanner result, field by field.
  const core::PlanResult direct =
      core::KarmaPlanner(request.model, request.device, request.planner)
          .plan();
  expect_artifact_of(*a, direct);
  EXPECT_EQ(a->first_iteration_time, a->iteration_time);
  EXPECT_FALSE(a->exchange.has_value());
}

TEST(Session, DistributedPlansTheFullPipeline) {
  PlanRequest request;
  request.model = graph::make_resnet50(256);
  request.device = sim::v100_abci();
  core::DistributedOptions options;
  options.num_gpus = 16;
  options.iterations = 2;
  request.planner.anneal_iterations = 0;
  request.distributed = options;
  request.probe_feasible_batch = false;

  const auto planned = Engine::create()->plan(request);
  ASSERT_TRUE(planned.has_value());
  EXPECT_TRUE(planned->distributed());
  EXPECT_TRUE(planned->weights_resident);  // ResNet-50 fits a V100
  EXPECT_GT(planned->iteration_time, 0.0);
  ASSERT_TRUE(planned->exchange.has_value());
  EXPECT_FALSE(planned->exchange->phases.empty());
  // All five pipeline stages are present and the artifact validates.
  bool has[8] = {};
  for (const auto& op : planned->schedule.ops)
    has[static_cast<int>(op.kind)] = true;
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kForward)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kBackward)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kSwapOut)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kAllReduce)]);
  EXPECT_TRUE(has[static_cast<int>(sim::OpKind::kCpuUpdate)]);
  EXPECT_NO_THROW(sim::validate_plan(planned->schedule));
  // And the same request plans the same artifact again.
  const auto again = Engine::create()->plan(request);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->to_json(), planned->to_json());
  // The artifact is the direct plan_data_parallel result, field by field
  // (request.planner supersedes the copy inside DistributedOptions).
  core::DistributedOptions direct_options = *request.distributed;
  direct_options.planner = request.planner;
  expect_artifact_of(*planned,
                     core::plan_data_parallel(request.model, request.device,
                                              direct_options));
  EXPECT_GT(planned->first_iteration_time, 0.0);
}

TEST(Session, DistributedShardResidencyDeficitIsReported) {
  // A bounded host tier too small for even the pinned weight shards +
  // in-flight gradients must produce a structured per-tier deficit, not a
  // bare "no feasible blocking".
  PlanRequest request;
  request.model = graph::make_transformer(graph::megatron_config(0), 4);
  request.device = sim::v100_abci_nvme();
  request.device.host_capacity = 256_MiB;  // << ~700 MiB of fp16 shards
  core::DistributedOptions options;
  options.num_gpus = 16;
  options.iterations = 2;
  request.planner.anneal_iterations = 0;
  request.distributed = options;
  request.probe_feasible_batch = false;

  const auto planned = Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  const PlanError& error = planned.error();
  EXPECT_EQ(error.code, PlanErrorCode::kTierOverflow);
  ASSERT_FALSE(error.deficits.empty());
  EXPECT_EQ(error.deficits[0].tier, tier::Tier::kHost);
  EXPECT_GT(error.deficits[0].deficit(), 0);
  EXPECT_NE(error.describe().find("weight shards"), std::string::npos);
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

TEST(PlanIo, RoundTripIsByteStableAndReplaysIdentically) {
  const auto planned = Engine::create()->plan(resnet_request());
  ASSERT_TRUE(planned.has_value());

  const std::string json = planned->to_json();
  const auto reloaded = Plan::from_json(json);
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().describe();

  // Deterministic: a write-read-write cycle is byte-identical.
  EXPECT_EQ(reloaded->to_json(), json);
  // And the reloaded schedule replays to the same makespan, to the bit.
  EXPECT_EQ(reloaded->simulate().makespan, planned->trace.makespan);
  EXPECT_EQ(reloaded->policies, planned->policies);
  EXPECT_EQ(reloaded->model_name, planned->model_name);
  EXPECT_EQ(reloaded->batch, planned->batch);
}

TEST(PlanIo, NegativeZeroSurvivesTheRoundTripByteForByte) {
  // A double member written as "-0" is an integral token; reading it as
  // +0.0 changed the artifact's bytes after one round trip.
  auto planned = Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  Plan plan = std::move(planned).value();
  plan.device.swap_latency = -0.0;
  plan.schedule.costs.front().fwd_time = -0.0;
  const std::string json = plan.to_json();
  ASSERT_NE(json.find("\"swap_latency\":-0,"), std::string::npos);
  const auto reloaded = Plan::from_json(json);
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().describe();
  EXPECT_TRUE(std::signbit(reloaded->device.swap_latency));
  EXPECT_TRUE(std::signbit(reloaded->schedule.costs.front().fwd_time));
  EXPECT_EQ(reloaded->to_json(), json);
}

TEST(PlanIo, RejectsGarbageAndWrongVersions) {
  EXPECT_FALSE(Plan::from_json("not json").has_value());
  EXPECT_FALSE(Plan::from_json("{}").has_value());
  const auto err = Plan::from_json("{\"version\":999}");
  ASSERT_FALSE(err.has_value());
  EXPECT_EQ(err.error().code, PlanErrorCode::kParseError);
}

TEST(PlanIo, RejectsParseableButCorruptArtifacts) {
  const auto planned = Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  const std::string json = planned->to_json();
  // An op pointing at a nonexistent block must not reach the engine.
  const std::string needle = "\"block\":0";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = json;
  corrupt.replace(pos, needle.size(), "\"block\":999");
  const auto rejected = Plan::from_json(corrupt);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, PlanErrorCode::kParseError);
}

// ---------------------------------------------------------------------------
// Executor binding
// ---------------------------------------------------------------------------

TEST(Session, BindExecutorDerivesPlannerBlocksExactly) {
  const auto planned = Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  // Same layer count -> the projection is the identity on block ranges.
  const auto derived = planned->derive_ooc_blocks(
      static_cast<std::size_t>(planned->model_layers));
  ASSERT_EQ(derived.size(), planned->blocks().size());
  for (std::size_t b = 0; b < derived.size(); ++b) {
    EXPECT_EQ(static_cast<int>(derived[b].first_layer),
              planned->blocks()[b].first_layer);
    EXPECT_EQ(static_cast<int>(derived[b].last_layer),
              planned->blocks()[b].last_layer);
    EXPECT_EQ(derived[b].policy, planned->policies[b]);
  }
}

TEST(Session, BindExecutorProjectsOntoSmallerNetContiguously) {
  const auto planned = Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  const auto derived = planned->derive_ooc_blocks(7);
  ASSERT_FALSE(derived.empty());
  EXPECT_EQ(derived.front().first_layer, 0u);
  EXPECT_EQ(derived.back().last_layer, 7u);
  for (std::size_t b = 1; b < derived.size(); ++b)
    EXPECT_EQ(derived[b].first_layer, derived[b - 1].last_layer);
}

TEST(Session, BindExecutorRunsTheRealNetwork) {
  const auto planned = Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  Rng rng(1);
  train::Sequential net = train::make_mlp({16, 32, 32, 4}, rng);
  train::OocExecutor exec =
      planned->bind_executor(&net, Bytes{1} << 30);
  const train::SyntheticBatch data =
      train::make_synthetic_batch(8, {16}, 4, rng);
  const train::StepStats stats =
      exec.compute_gradients(data.inputs, data.labels);
  EXPECT_GT(stats.loss, 0.0f);
}

// ---------------------------------------------------------------------------
// Structured infeasibility
// ---------------------------------------------------------------------------

TEST(Session, EmptyModelIsInvalidRequest) {
  PlanRequest request;
  request.device = sim::v100_abci();
  const auto planned = Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  EXPECT_EQ(planned.error().code, PlanErrorCode::kInvalidRequest);
}

TEST(Session, SingleLayerOverflowNamesLayerBlockAndDeficit) {
  PlanRequest request;
  // One FC layer's activations (~16 MiB with allocator overhead) dwarf the
  // 1 MiB test device at batch 8; batch 1 still fits nothing? No — 2 MiB
  // per layer at batch 1 also overflows, so the bisection reports -1 only
  // when truly nothing fits. Use a width where batch 1 fits.
  request.model = chain_model(4, 8, 32768);  // 8*32768*4 = 1 MiB/layer
  request.device = sim::test_device();       // 1 MiB
  const auto planned = Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  const PlanError& error = planned.error();
  EXPECT_EQ(error.code, PlanErrorCode::kLayerExceedsDevice);
  EXPECT_GE(error.violating_layer, 0);
  EXPECT_GE(error.violating_block, 0);
  ASSERT_FALSE(error.deficits.empty());
  EXPECT_EQ(error.deficits[0].tier, tier::Tier::kDevice);
  EXPECT_GT(error.deficits[0].deficit(), 0);
  // Bisection found a batch that does plan.
  EXPECT_GE(error.nearest_feasible_batch, 1);
  EXPECT_LT(error.nearest_feasible_batch, 8);
  // The reported batch really is feasible.
  PlanRequest shrunk = request;
  shrunk.model =
      request.model.with_batch_size(error.nearest_feasible_batch);
  EXPECT_TRUE(Engine::create()->plan(shrunk).has_value());
  // describe() carries the essentials for logs.
  const std::string text = error.describe();
  EXPECT_NE(text.find("layer-exceeds-device"), std::string::npos);
  EXPECT_NE(text.find("nearest feasible batch"), std::string::npos);
}

TEST(Session, WeightsOverflowIsDiagnosed) {
  PlanRequest request = resnet_request();
  request.device.memory_capacity = 64_MiB;  // below ResNet-50 weight state
  const auto planned = Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  EXPECT_EQ(planned.error().code, PlanErrorCode::kWeightsExceedDevice);
  ASSERT_FALSE(planned.error().deficits.empty());
  EXPECT_GT(planned.error().deficits[0].deficit(), 0);
}

// ---------------------------------------------------------------------------
// Optimizer reserved-host pre-charge (ROADMAP open item)
// ---------------------------------------------------------------------------

TEST(Session, OptimizerReserveDisplacesSpillToNvme) {
  // Probe: how much host DRAM does the plan's swap set claim when DRAM is
  // ample? (v100_abci_nvme ships 384 GiB.) The blocking is pinned to a
  // single candidate (min==max blocks, no annealing, no recompute) so all
  // three runs plan the same blocks and only the routing can differ —
  // otherwise the engine may legitimately prefer a different blocking
  // whose NVMe swaps overlap the D2H stream.
  PlanRequest request;
  request.model = graph::make_resnet50(384);
  request.device = sim::v100_abci_nvme();
  request.planner.enable_recompute = false;
  request.planner.anneal_iterations = 0;
  request.planner.min_blocks = 12;
  request.planner.max_blocks = 12;
  request.probe_feasible_batch = false;
  const auto probe = Engine::create()->plan(request);
  ASSERT_TRUE(probe.has_value());
  Bytes host_spill = 0;
  for (std::size_t b = 0; b < probe->policies.size(); ++b)
    if (probe->policies[b] == core::BlockPolicy::kSwap)
      host_spill += probe->schedule.costs[b].act_bytes;
  ASSERT_GT(host_spill, 0);

  // Shrink DRAM to exactly the swap set: still all-host at reserve 0.
  request.device.host_capacity = host_spill;
  const auto exact = Engine::create()->plan(request);
  ASSERT_TRUE(exact.has_value());
  int nvme_at_zero = 0;
  for (const auto p : exact->policies)
    if (p == core::BlockPolicy::kSwapNvme) ++nvme_at_zero;
  EXPECT_EQ(nvme_at_zero, 0);
  EXPECT_EQ(exact->reserved_host_bytes, 0);

  // Charge Adam state (3x parameter bytes pinned in DRAM): the same
  // request must now spill part of the swap set to NVMe, and the engine's
  // host ledger must respect the shrunken tier.
  request.optimizer.kind = OptimizerSpec::Kind::kAdam;
  const auto charged = Engine::create()->plan(request);
  ASSERT_TRUE(charged.has_value());
  EXPECT_GT(charged->reserved_host_bytes, 0);
  int nvme_charged = 0;
  for (const auto p : charged->policies)
    if (p == core::BlockPolicy::kSwapNvme) ++nvme_charged;
  EXPECT_GT(nvme_charged, 0)
      << "optimizer reserve did not displace any block to NVMe";
  EXPECT_LE(charged->trace.peak_host_resident,
            request.device.host_capacity - charged->reserved_host_bytes);
}

TEST(TieredPolicies, ReservedHostShiftsRouting) {
  std::vector<sim::Block> blocks = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  std::vector<sim::BlockCost> costs(4);
  for (auto& c : costs) c.act_bytes = 100;
  tier::TierSpec host;
  host.capacity = 300;
  host.read_bw = host.write_bw = 1.0;
  tier::TierSpec nvme;
  nvme.capacity = 1000;
  nvme.read_bw = nvme.write_bw = 1.0;
  const auto hierarchy = tier::three_tier(1000, host, nvme);
  // Budget keeps only the tail resident; blocks 0..2 swap and all three
  // fit the 300 B host with no reserve.
  const auto base = core::tiered_policies(blocks, costs, 300, hierarchy);
  EXPECT_EQ(base[0], core::BlockPolicy::kSwap);
  EXPECT_EQ(base[1], core::BlockPolicy::kSwap);
  EXPECT_EQ(base[2], core::BlockPolicy::kSwap);
  // A 200 B reserve leaves room for one payload: the latest swapped block
  // (needed soonest in backward) keeps DRAM, the earlier two spill out.
  const auto reserved =
      core::tiered_policies(blocks, costs, 300, hierarchy, /*reserved=*/200);
  EXPECT_EQ(reserved[0], core::BlockPolicy::kSwapNvme);
  EXPECT_EQ(reserved[1], core::BlockPolicy::kSwapNvme);
  EXPECT_EQ(reserved[2], core::BlockPolicy::kSwap);
}

// ---------------------------------------------------------------------------
// Golden fixture: plan-format drift is a reviewable diff
// ---------------------------------------------------------------------------

/// Hand-built plan with arithmetic-free round numbers, so the fixture is
/// stable across compilers and platforms.
Plan golden_plan() {
  Plan plan;
  plan.model_name = "golden-model";
  plan.batch = 4;
  plan.model_layers = 4;
  plan.device = sim::test_device_tiered();

  plan.schedule.strategy = "golden";
  plan.schedule.blocks = {{0, 2}, {2, 4}};
  sim::BlockCost c0;
  c0.fwd_time = 0.5;
  c0.bwd_time = 1.0;
  c0.act_bytes = 1024;
  c0.boundary_bytes = 256;
  c0.param_bytes = 512;
  c0.grad_bytes = 512;
  sim::BlockCost c1 = c0;
  c1.act_bytes = 2048;
  plan.schedule.costs = {c0, c1};
  plan.schedule.capacity = 4096;
  plan.schedule.baseline_resident = 1024;
  plan.schedule.host_baseline_resident = 512;  // pinned weight shards
  plan.schedule.hierarchy = tier::test_hierarchy();

  sim::Op fwd;
  fwd.kind = sim::OpKind::kForward;
  fwd.block = 0;
  sim::Op out;
  out.kind = sim::OpKind::kSwapOut;
  out.block = 0;
  out.tier = tier::Tier::kNvme;
  sim::Op bwd;
  bwd.kind = sim::OpKind::kBackward;
  bwd.block = 0;
  bwd.duration = 0.25;
  // Distributed-pipeline residency classes: a gradient-out and the
  // CPU update that consumes it (the v2 schema's `residency` field).
  sim::Op gout;
  gout.kind = sim::OpKind::kSwapOut;
  gout.block = 0;
  gout.residency = tier::Residency::kGradient;
  gout.bytes = 512;
  sim::Op up;
  up.kind = sim::OpKind::kCpuUpdate;
  up.block = 0;
  up.residency = tier::Residency::kGradient;
  up.bytes = 512;
  up.duration = 0.125;
  plan.schedule.ops = {fwd, out, bwd, gout, up};
  plan.schedule.stage_of = {1, 2, 3, 4, 5};

  plan.policies = {core::BlockPolicy::kSwapNvme, core::BlockPolicy::kResident};
  plan.iteration_time = 2.5;
  plan.first_iteration_time = 2.5;
  plan.occupancy = 0.75;
  plan.trace.makespan = 2.5;
  plan.trace.peak_resident = 3072;
  plan.trace.peak_host_resident = 0;
  plan.trace.peak_nvme_resident = 1024;
  plan.reserved_host_bytes = 128;

  net::ExchangePlan exchange;
  net::ExchangePhase phase;
  phase.launch_after_block = 1;
  phase.blocks = {0, 1};
  phase.bytes = 1024;
  phase.allreduce_time = 0.125;
  exchange.phases = {phase};
  plan.exchange = exchange;
  plan.weights_resident = false;
  return plan;
}

TEST(PlanIo, GoldenFixtureMatches) {
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/plan_fixture.json";
  const std::string actual = golden_plan().to_json();

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_api";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(actual, expected)
      << "plan JSON schema drifted; if intentional, regenerate the fixture "
         "with KARMA_REGEN_GOLDEN=1 and review the diff";
  // The committed fixture must itself load and validate.
  const auto reloaded = Plan::from_json(expected);
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().describe();
  EXPECT_EQ(reloaded->to_json(), expected);
}

TEST(PlanIo, DistributedFlagMustAgreeWithTheExchange) {
  // "distributed" is derived from the exchange, not stored beside it: an
  // artifact where the two disagree is corrupt and must not reach the
  // disk cache or the engine.
  const std::string json = golden_plan().to_json();
  const std::string flag = "\"distributed\":true";
  ASSERT_NE(json.find(flag), std::string::npos);
  const std::string_view exchange = util::json::scan_member(json, "exchange");
  ASSERT_FALSE(exchange.empty());
  const std::size_t exchange_at =
      static_cast<std::size_t>(exchange.data() - json.data());

  std::string no_exchange = json;  // "distributed":true,"exchange":null
  no_exchange.replace(exchange_at, exchange.size(), "null");
  std::string not_flagged = json;  // "distributed":false with an exchange
  not_flagged.replace(json.find(flag), flag.size(), "\"distributed\":false");
  for (const std::string& bad : {no_exchange, not_flagged}) {
    const auto parsed = Plan::from_json(bad);
    ASSERT_FALSE(parsed.has_value());
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError);
  }

  std::string single = not_flagged;  // consistent: no exchange, not flagged
  single.replace(exchange_at + 1, exchange.size(), "null");
  const auto parsed = Plan::from_json(single);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().describe();
  EXPECT_FALSE(parsed->exchange.has_value());
}

}  // namespace
}  // namespace karma::api
