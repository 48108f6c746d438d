// karma::place — heterogeneous fleet modeling and cost-based shard
// placement (DESIGN.md §16): placement determinism (bit-identical plans
// across runs, asserted under TSan too since this file runs in every
// sanitizer lane), the placement golden fixture (regenerate with
// KARMA_REGEN_GOLDEN=1 ./test_place), fleet request round-trips that
// preserve the cache key, the end-to-end Engine fleet path naming the
// straggler, structured FleetInfeasible surfacing, and the identity
// NVMe-contention bit-exactness guarantee.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet_planner.h"
#include "src/sim/device.h"
#include "tests/expect_artifact.h"

namespace karma::place {
namespace {

/// Small transformer chain: dense clean cuts, quick searches.
graph::Model tiny_transformer(std::int64_t batch = 8) {
  graph::TransformerConfig cfg;
  cfg.hidden = 256;
  cfg.heads = 4;
  cfg.layers = 4;
  cfg.seq_len = 128;
  cfg.vocab = 1000;
  return graph::make_transformer_chain(cfg, batch);
}

FleetSpec small_fleet(Bytes weak_host = Bytes{8} << 30) {
  return mixed_generation_fleet(/*strong=*/2, /*weak=*/2, weak_host);
}

FleetPlanOptions fast_options() {
  FleetPlanOptions options;
  options.planner.anneal_iterations = 0;
  options.placement.target_blocks = 8;
  return options;
}

api::PlanRequest fleet_request(std::int64_t batch = 8) {
  api::PlanRequest request;
  request.model = tiny_transformer(batch);
  request.device = sim::v100_abci_nvme();
  request.planner.anneal_iterations = 0;
  request.optimizer.kind = api::OptimizerSpec::Kind::kAdam;
  request.fleet = small_fleet();
  request.probe_feasible_batch = false;
  return request;
}

// ---------------------------------------------------------------------------
// Placement algorithm.
// ---------------------------------------------------------------------------

TEST(Placement, BlocksPartitionTheModel) {
  const graph::Model model = tiny_transformer();
  const auto blocks = placement_blocks(model, 8);
  ASSERT_FALSE(blocks.empty());
  EXPECT_EQ(blocks.front().first_layer, 0);
  EXPECT_EQ(blocks.back().last_layer,
            static_cast<int>(model.num_layers()));
  for (std::size_t i = 0; i + 1 < blocks.size(); ++i) {
    EXPECT_LT(blocks[i].first_layer, blocks[i].last_layer);
    EXPECT_EQ(blocks[i].last_layer, blocks[i + 1].first_layer);
  }
}

TEST(Placement, CostBasedFavorsStrongNodesOverWeakOnes) {
  const graph::Model model = tiny_transformer();
  const FleetSpec fleet = small_fleet(/*weak_host=*/Bytes{2} << 30);
  PlacementOptions options;
  options.optimizer_state_bytes = [](Bytes param) { return 3 * param; };
  const PlacementPlan plan =
      place_blocks(model, fleet, placement_blocks(model, 8), options);
  Bytes strong_owned = 0, weak_owned = 0;
  for (int n = 0; n < fleet.num_nodes(); ++n) {
    const Bytes owned = plan.nodes[n].owned_param_bytes;
    (fleet.nodes[n].name.rfind("a100", 0) == 0 ? strong_owned : weak_owned) +=
        owned;
  }
  // Weak nodes have scarce DRAM behind a contended NVMe: ownership cost
  // pushes the shards onto the strong nodes.
  EXPECT_GT(strong_owned, weak_owned);
}

TEST(Placement, RoundRobinSpreadsEvenlyByIndex) {
  const graph::Model model = tiny_transformer();
  FleetSpec fleet = small_fleet();
  fleet.strategy = PlacementStrategy::kRoundRobin;
  const auto blocks = placement_blocks(model, 8);
  const PlacementPlan plan = place_blocks(model, fleet, blocks, {});
  for (std::size_t b = 0; b < plan.owner.size(); ++b)
    EXPECT_EQ(plan.owner[b], static_cast<int>(b) % fleet.num_nodes());
}

TEST(Placement, InfeasibleNamesTheBindingNode) {
  const graph::Model model = tiny_transformer();
  // Every node's DRAM is too small for any block's ownership charge.
  FleetSpec fleet = small_fleet();
  for (auto& node : fleet.nodes) node.device.host_capacity = 1024;
  PlacementOptions options;
  options.optimizer_state_bytes = [](Bytes param) { return 3 * param; };
  try {
    place_blocks(model, fleet, placement_blocks(model, 8), options);
    FAIL() << "expected FleetInfeasible";
  } catch (const FleetInfeasible& ex) {
    EXPECT_FALSE(ex.node.empty());
    ASSERT_FALSE(ex.deficits.empty());
    EXPECT_EQ(ex.deficits[0].tier, tier::Tier::kHost);
    EXPECT_GT(ex.deficits[0].required, ex.deficits[0].capacity);
  }
}

// ---------------------------------------------------------------------------
// Determinism: the ISSUE's bit-identity acceptance gate. This test also
// runs in the TSan lane (all tier1 tests do), covering the "and under
// TSan" half.
// ---------------------------------------------------------------------------

TEST(Placement, FleetPlanIsBitIdenticalAcrossRuns) {
  const graph::Model model = tiny_transformer();
  const FleetSpec fleet = small_fleet();
  const FleetPlanResult a = plan_fleet(model, fleet, fast_options());
  const FleetPlanResult b = plan_fleet(model, fleet, fast_options());
  EXPECT_EQ(api::placement_to_json(a.placement),
            api::placement_to_json(b.placement));
  EXPECT_EQ(a.placement.straggler, b.placement.straggler);
  // bitwise, not approx
  EXPECT_EQ(a.placement.iteration_time, b.placement.iteration_time);
}

TEST(Placement, StragglerCompositionIsTheMaxOverNodes) {
  const graph::Model model = tiny_transformer();
  const FleetPlanResult r =
      plan_fleet(model, small_fleet(), fast_options());
  const PlacementPlan& placement = r.placement;
  ASSERT_EQ(r.nodes.size(), placement.nodes.size());
  Seconds max_total = 0;
  for (std::size_t n = 0; n < r.nodes.size(); ++n) {
    const NodeSummary& leg = placement.nodes[n];
    EXPECT_EQ(leg.plan_iteration_time, r.nodes[n].iteration_time);
    EXPECT_GE(leg.total_time, leg.plan_iteration_time + leg.exchange_tail);
    max_total = std::max(max_total, leg.total_time);
  }
  EXPECT_EQ(placement.iteration_time, max_total);
  EXPECT_EQ(placement.nodes[placement.straggler].total_time, max_total);
}

// ---------------------------------------------------------------------------
// Serialization: fixtures + key preservation.
// ---------------------------------------------------------------------------

TEST(PlacementIo, GoldenFixtureMatches) {
  // Hand-built artifact (like plan_io's golden): pins the SCHEMA, not the
  // planner's output, so searches can improve without fixture churn.
  PlacementPlan p;
  p.strategy = PlacementStrategy::kCostBased;
  p.blocks = {{0, 3}, {3, 7}};
  p.owner = {1, 0};
  NodeSummary n0;
  n0.name = "a100-0";
  n0.device_name = "A100-SXM4-40GiB + local NVMe";
  n0.owned_blocks = 1;
  n0.owned_param_bytes = 4096;
  n0.owned_grad_bytes = 4096;
  n0.reserved_host_bytes = 20480;
  n0.plan_iteration_time = 0.5;
  n0.exchange_tail = 0.125;
  n0.update_time = 0.0625;
  n0.total_time = 0.6875;
  NodeSummary n1 = n0;
  n1.name = "v100-0";
  n1.device_name = "V100-SXM2-16GiB (ABCI) + local NVMe";
  n1.warm_started = true;
  p.nodes = {n0, n1};
  p.straggler = 1;
  p.iteration_time = 0.75;

  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/placement_fixture.json";
  const std::string actual = api::placement_to_json(p);

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_place";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(actual, expected)
      << "placement JSON schema drifted; if intentional, regenerate with "
         "KARMA_REGEN_GOLDEN=1 and review the diff";
  const PlacementPlan reloaded = api::placement_from_json(expected);
  EXPECT_EQ(api::placement_to_json(reloaded), expected);
}

TEST(PlacementIo, FleetRequestRoundTripPreservesCacheKey) {
  const api::PlanRequest request = fleet_request();
  const std::string json = api::request_to_json(request);
  const auto parsed = api::request_from_json(json);
  ASSERT_TRUE(parsed.has_value()) << parsed.error().describe();
  ASSERT_TRUE(parsed->fleet.has_value());
  EXPECT_EQ(cache::request_fingerprint(*parsed),
            cache::request_fingerprint(request));
  EXPECT_EQ(api::request_to_json(*parsed), json);
}

TEST(PlacementIo, FleetChangesRekeyTheRequest) {
  const api::PlanRequest base = fleet_request();
  api::PlanRequest strategy_flipped = base;
  strategy_flipped.fleet->strategy = PlacementStrategy::kRoundRobin;
  api::PlanRequest node_renamed = base;
  node_renamed.fleet->nodes[0].name = "a100-0b";
  api::PlanRequest no_fleet = base;
  no_fleet.fleet.reset();
  const auto key = [](const api::PlanRequest& r) {
    return cache::request_fingerprint(r);
  };
  EXPECT_NE(key(base), key(strategy_flipped));
  EXPECT_NE(key(base), key(node_renamed));
  EXPECT_NE(key(base), key(no_fleet));
}

TEST(PlacementIo, FleetSpecRoundTripsStandalone) {
  FleetSpec fleet = small_fleet();
  fleet.strategy = PlacementStrategy::kRoundRobin;
  const std::string json = api::fleet_to_json(fleet);
  const FleetSpec parsed = api::fleet_from_json(json);
  EXPECT_EQ(api::fleet_to_json(parsed), json);
  EXPECT_EQ(parsed.strategy, PlacementStrategy::kRoundRobin);
  ASSERT_EQ(parsed.num_nodes(), fleet.num_nodes());
  EXPECT_EQ(parsed.nodes[3].device.nvme_contention.queue_depth, 4.0);
}

// ---------------------------------------------------------------------------
// Identity contention = byte-unchanged artifacts and cache keys.
// ---------------------------------------------------------------------------

TEST(NvmeContention, IdentityLeavesDeviceJsonAndKeysByteUnchanged) {
  api::PlanRequest request = fleet_request();
  request.fleet.reset();
  const std::string json = api::request_to_json(request);
  // The identity contention model must be invisible on the wire...
  EXPECT_EQ(json.find("nvme_contention"), std::string::npos);
  // ...and a non-identity one must both serialize and re-key.
  api::PlanRequest contended = request;
  contended.device.nvme_contention.queue_depth = 4.0;
  EXPECT_NE(api::request_to_json(contended).find("nvme_contention"),
            std::string::npos);
  EXPECT_NE(cache::request_fingerprint(contended),
            cache::request_fingerprint(request));
}

TEST(NvmeContention, IdentityReproducesSeedTimingsExactly) {
  sim::DeviceSpec base = sim::v100_abci_nvme();
  sim::DeviceSpec contended = base;
  contended.nvme_contention.queue_depth = 4.0;
  contended.nvme_contention.mixed_read_penalty = 1.6;
  const Bytes mb = Bytes{1} << 20;
  // qd=0 is the exact seed formula (bw / (1+0) == bw, bitwise).
  EXPECT_EQ(base.nvme_read_time(mb),
            base.nvme_latency + static_cast<double>(mb) / base.nvme_read_bw);
  // qd=4 stretches the transfer ~5x (latency excluded).
  EXPECT_NEAR(contended.nvme_read_time(mb) - base.nvme_latency,
              5.0 * (base.nvme_read_time(mb) - base.nvme_latency), 1e-12);
}

// ---------------------------------------------------------------------------
// End-to-end through the Engine.
// ---------------------------------------------------------------------------

TEST(FleetSession, PlansEndToEndAndNamesTheStraggler) {
  const auto planned = api::Engine::create()->plan(fleet_request());
  ASSERT_TRUE(planned.has_value()) << planned.error().describe();
  const api::Plan& plan = *planned;
  ASSERT_TRUE(plan.placement.has_value());
  const PlacementPlan& placement = *plan.placement;
  ASSERT_EQ(placement.nodes.size(), 4u);
  ASSERT_GE(placement.straggler, 0);
  // The artifact's scalar fields describe the straggler node.
  EXPECT_EQ(plan.device.name,
            placement.nodes[placement.straggler].device_name);
  EXPECT_EQ(plan.iteration_time, placement.iteration_time);
  EXPECT_TRUE(plan.distributed());
  ASSERT_TRUE(plan.exchange.has_value());
  // Fleet max >= the straggler's own planned makespan (tails add).
  EXPECT_GE(plan.iteration_time,
            placement.nodes[placement.straggler].plan_iteration_time);
  // The artifact round-trips with its placement intact.
  const auto reloaded = api::Plan::from_json(plan.to_json());
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().describe();
  ASSERT_TRUE(reloaded->placement.has_value());
  EXPECT_EQ(api::placement_to_json(*reloaded->placement),
            api::placement_to_json(placement));
  EXPECT_EQ(reloaded->to_json(), plan.to_json());

  // The artifact's search result is the straggler's in the same direct
  // plan_fleet search, with the fleet's iteration time.
  const api::PlanRequest request = fleet_request();
  FleetPlanOptions options;
  options.planner = request.planner;
  options.placement.optimizer_state_bytes = [&](Bytes param_bytes) {
    return request.optimizer.host_state_bytes(param_bytes);
  };
  const FleetPlanResult direct =
      plan_fleet(request.model, *request.fleet, options);
  const std::size_t straggler =
      static_cast<std::size_t>(direct.placement.straggler);
  ASSERT_EQ(direct.placement.straggler, placement.straggler);
  core::PlanResult expected = direct.nodes[straggler];
  ASSERT_TRUE(expected.exchange.has_value());
  expected.iteration_time = direct.placement.iteration_time;
  expected.first_iteration_time = direct.placement.iteration_time;
  expect_artifact_of(plan, expected);
  EXPECT_EQ(plan.reserved_host_bytes,
            direct.placement.nodes[straggler].reserved_host_bytes);
}

TEST(FleetSession, InfeasibleFleetReportsBindingNodeAsStructuredError) {
  api::PlanRequest request = fleet_request();
  for (auto& node : request.fleet->nodes) node.device.host_capacity = 1024;
  const auto planned = api::Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  const api::PlanError& e = planned.error();
  EXPECT_EQ(e.code, api::PlanErrorCode::kTierOverflow);
  EXPECT_FALSE(e.device.empty());
  // The binding node, not the request's nominal device.
  EXPECT_NE(e.device, request.device.name);
  ASSERT_FALSE(e.deficits.empty());
  EXPECT_EQ(e.deficits[0].tier, tier::Tier::kHost);
}

TEST(FleetSession, InfeasibleFleetIsMemoizedOnce) {
  // The fleet's structured diagnosis goes through the same memoization as
  // any other: the second plan() is served from the cache with the
  // binding node and its shortfalls intact, and searches nothing.
  api::PlanRequest request = fleet_request();
  for (auto& node : request.fleet->nodes) node.device.host_capacity = 1024;
  const auto engine = api::Engine::create();
  const auto first = engine->plan(request);
  ASSERT_FALSE(first.has_value());
  EXPECT_FALSE(first.error().from_negative_cache);
  const auto second = engine->plan(request);
  ASSERT_FALSE(second.has_value());
  const api::PlanError& e = second.error();
  EXPECT_TRUE(e.from_negative_cache);
  EXPECT_EQ(e.code, api::PlanErrorCode::kTierOverflow);
  EXPECT_EQ(e.device, first.error().device);
  EXPECT_NE(e.device, request.device.name);
  ASSERT_EQ(e.deficits.size(), first.error().deficits.size());
  ASSERT_FALSE(e.deficits.empty());
  for (std::size_t i = 0; i < e.deficits.size(); ++i) {
    EXPECT_EQ(e.deficits[i].tier, first.error().deficits[i].tier);
    EXPECT_EQ(e.deficits[i].required, first.error().deficits[i].required);
    EXPECT_EQ(e.deficits[i].capacity, first.error().deficits[i].capacity);
  }
  EXPECT_EQ(engine->stats().searches, 1u);
  EXPECT_EQ(engine->cache_stats().negative_hits, 1u);
}

TEST(FleetSession, FleetAndDistributedAreMutuallyExclusive) {
  api::PlanRequest request = fleet_request();
  core::DistributedOptions distributed;
  distributed.num_gpus = 4;
  request.distributed = distributed;
  const auto planned = api::Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  EXPECT_EQ(planned.error().code, api::PlanErrorCode::kInvalidRequest);
}

TEST(FleetSession, InvalidFleetIsRejectedBeforePlanning) {
  api::PlanRequest request = fleet_request();
  request.fleet->nodes.resize(1);  // < 2 nodes
  const auto planned = api::Engine::create()->plan(request);
  ASSERT_FALSE(planned.has_value());
  EXPECT_EQ(planned.error().code, api::PlanErrorCode::kInvalidRequest);
}

TEST(FleetSession, FleetPlansAreServedFromCache) {
  const auto engine = api::Engine::create();
  const api::PlanRequest request = fleet_request();
  const auto first = engine->plan(request);
  ASSERT_TRUE(first.has_value()) << first.error().describe();
  const auto second = engine->plan(request);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->to_json(), first->to_json());
  EXPECT_GE(engine->cache_stats().hits(), 1u);
}

}  // namespace
}  // namespace karma::place
