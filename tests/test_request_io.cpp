// request_io: the versioned PlanRequest / PlanError JSON artifacts that
// ride the karma-pland wire (DESIGN.md §12). The load-bearing property is
// KEY PRESERVATION: a request that crosses the wire must plan against the
// same cache entry as the original — request_key(round_trip(r)) ==
// request_key(r) — otherwise the fleet-wide single-flight and the storm
// test's byte-identity guarantee silently fall apart.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"

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

/// Exercises every optional corner of the schema at once: skip edges,
/// a distributed spec with non-default everything, an exotic optimizer,
/// a 64-bit seed past int64, and search limits.
PlanRequest kitchen_sink_request() {
  PlanRequest request;
  request.model = graph::make_unet(/*batch=*/8);  // has skip edges
  request.device = sim::v100_abci();
  request.planner.enable_recompute = false;
  request.planner.min_blocks = 3;
  request.planner.max_blocks = 17;
  request.planner.anneal_iterations = 7;
  request.planner.seed = 0xDEADBEEFCAFEF00Dull;  // > int64 max when doubled
  request.optimizer.kind = OptimizerSpec::Kind::kAdam;
  request.optimizer.host_resident = true;
  request.optimizer.state_bytes_per_param_byte = 3.25;
  core::DistributedOptions dist;
  dist.num_gpus = 16;
  dist.net.gpus_per_node = 8;
  dist.net.intra_bw = 123.5e9;
  dist.net.intra_latency = 2.5e-6;
  dist.net.inter_bw = 25e9;
  dist.net.inter_latency = 11e-6;
  dist.exchange = core::ExchangeMode::kPerBlock;
  dist.update = core::UpdateSite::kDevice;
  dist.iterations = 3;
  dist.weight_shard_fraction = 0.0625;
  request.distributed = dist;
  request.probe_feasible_batch = true;
  request.limits.deadline = 1.5;
  request.limits.max_candidates = 4242;
  return request;
}

TEST(RequestIo, RoundTripPreservesTheRequestKey) {
  for (const PlanRequest& request :
       {resnet_request(), kitchen_sink_request()}) {
    const std::string json = request_to_json(request);
    auto back = request_from_json(json);
    ASSERT_TRUE(back.has_value()) << json.substr(0, 200);
    EXPECT_EQ(cache::request_key(request).hex(),
              cache::request_key(back.value()).hex());
  }
}

TEST(RequestIo, RoundTripIsByteStable) {
  for (const PlanRequest& request :
       {resnet_request(), kitchen_sink_request()}) {
    const std::string json = request_to_json(request);
    auto back = request_from_json(json);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(request_to_json(back.value()), json);
  }
}

TEST(RequestIo, RoundTripPreservesNonKeyFields) {
  // limits and the probe flag are deliberately OUTSIDE the fingerprint
  // (a deadline must not fork the cache) but must still cross the wire.
  const PlanRequest request = kitchen_sink_request();
  auto back = request_from_json(request_to_json(request));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->probe_feasible_batch, true);
  EXPECT_DOUBLE_EQ(back->limits.deadline, 1.5);
  EXPECT_EQ(back->limits.max_candidates, 4242);
  ASSERT_TRUE(back->distributed.has_value());
  EXPECT_EQ(back->distributed->num_gpus, 16);
  EXPECT_EQ(back->planner.seed, 0xDEADBEEFCAFEF00Dull);
}

TEST(RequestIo, SkipEdgesSurviveReconstruction) {
  // Only non-chain edges serialize (add_layer wires the chain); the U-Net
  // skips must come back exactly for the fingerprint to match.
  const PlanRequest request = kitchen_sink_request();
  auto back = request_from_json(request_to_json(request));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->model.layers().size(), request.model.layers().size());
  for (std::size_t i = 0; i < request.model.layers().size(); ++i) {
    const int id = static_cast<int>(i);
    EXPECT_EQ(back->model.succs(id), request.model.succs(id))
        << "layer " << id;
  }
}

TEST(RequestIo, MalformedRequestIsAParseError) {
  for (const char* bad :
       {"", "not json", "[]", "{\"version\":1}",
        "{\"version\":99,\"model\":{}}"}) {
    auto parsed = request_from_json(bad);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError) << bad;
  }
}

TEST(RequestIo, NegativeSeedIsAParseErrorNotAWrap) {
  // strtoull accepts "-1" and wraps it to 2^64-1 without ERANGE; the
  // reader must reject it instead of silently planning with a huge seed.
  const std::string json = request_to_json(kitchen_sink_request());
  const std::string good = "\"seed\":\"16045690984503111693\"";
  ASSERT_NE(json.find(good), std::string::npos);
  for (const char* bad : {"\"seed\":\"-1\"", "\"seed\":\"+7\"",
                          "\"seed\":\" 7\"", "\"seed\":\"\""}) {
    std::string mutated = json;
    mutated.replace(mutated.find(good), good.size(), bad);
    auto parsed = request_from_json(mutated);
    ASSERT_FALSE(parsed.has_value()) << bad;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError) << bad;
  }
}

// ---------------------------------------------------------------------------
// PlanError artifacts
// ---------------------------------------------------------------------------

TEST(RequestIo, ErrorRoundTripPreservesEveryField) {
  PlanError e;
  e.code = PlanErrorCode::kTierOverflow;
  e.message = "demand exceeds every tier \"quoted\"";
  e.model = "resnet50-b512";
  e.device = "V100-ABCI";
  e.violating_layer = 42;
  e.violating_block = 7;
  e.deficits.push_back({tier::Tier::kHost, 1000, 800});
  e.deficits.push_back({tier::Tier::kNvme, 5000, 4096});
  e.nearest_feasible_batch = 384;
  e.probe_candidates = 9;
  e.probe_cache_hits = 3;
  e.from_negative_cache = true;
  e.retry_after = 0.25;

  const PlanError back = error_from_json(error_to_json(e));
  EXPECT_EQ(back.code, e.code);
  EXPECT_EQ(back.message, e.message);
  EXPECT_EQ(back.model, e.model);
  EXPECT_EQ(back.device, e.device);
  EXPECT_EQ(back.violating_layer, e.violating_layer);
  EXPECT_EQ(back.violating_block, e.violating_block);
  ASSERT_EQ(back.deficits.size(), 2u);
  EXPECT_EQ(back.deficits[0].tier, tier::Tier::kHost);
  EXPECT_EQ(back.deficits[0].required, 1000);
  EXPECT_EQ(back.deficits[1].capacity, 4096);
  EXPECT_EQ(back.nearest_feasible_batch, 384);
  EXPECT_EQ(back.probe_candidates, 9);
  EXPECT_EQ(back.probe_cache_hits, 3);
  EXPECT_TRUE(back.from_negative_cache);
  EXPECT_DOUBLE_EQ(back.retry_after, 0.25);
  EXPECT_EQ(back.partial, nullptr);
}

TEST(RequestIo, ErrorRoundTripCarriesThePartialPlanByteExactly) {
  // A deadline error ships the best-so-far artifact; across the wire it
  // must stay the same bytes (the plan artifact is spliced verbatim).
  const auto planned =
      Engine::create()->plan(resnet_request(256));
  ASSERT_TRUE(planned.has_value());
  PlanError e;
  e.code = PlanErrorCode::kDeadline;
  e.message = "out of budget";
  e.partial = std::make_shared<const Plan>(planned.value());

  const PlanError back = error_from_json(error_to_json(e));
  EXPECT_EQ(back.code, PlanErrorCode::kDeadline);
  ASSERT_NE(back.partial, nullptr);
  EXPECT_EQ(back.partial->to_json(), planned.value().to_json());
}

TEST(RequestIo, MalformedErrorDegradesToAParseError) {
  const PlanError e = error_from_json("{\"garbage\":true}");
  EXPECT_EQ(e.code, PlanErrorCode::kParseError);
}

}  // namespace
}  // namespace karma::api
