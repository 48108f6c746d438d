// request_io: the versioned PlanRequest / PlanError JSON artifacts that
// ride the karma-pland wire (DESIGN.md §12). The load-bearing property is
// KEY PRESERVATION: a request that crosses the wire must plan against the
// same cache entry as the original — request_key(round_trip(r)) ==
// request_key(r) — otherwise the fleet-wide single-flight and the storm
// test's byte-identity guarantee silently fall apart.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet.h"

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


// ---------------------------------------------------------------------------
// Golden fixtures: request and error bytes are a reviewable diff
// ---------------------------------------------------------------------------

/// Small hand-built graph with two skip edges, so the fixture stays short
/// and exercises the skip reconstruction.
graph::Model fixture_model() {
  graph::Model model("fixture-net", 2);
  model.set_activation_memory_scale(1.25);
  const auto layer = [](const char* name, graph::LayerKind kind,
                        graph::TensorShape in, graph::TensorShape out) {
    graph::Layer l;
    l.name = name;
    l.kind = kind;
    l.in_shape = std::move(in);
    l.out_shape = std::move(out);
    return l;
  };
  const auto img = graph::TensorShape::nchw(2, 4, 8, 8);
  model.add_layer(layer("input", graph::LayerKind::kInput, img, img));
  graph::Layer conv = layer("conv", graph::LayerKind::kConv2d, img, img);
  conv.kernel = 3;
  conv.in_channels = 4;
  conv.out_channels = 4;
  conv.weight_elems = 144;
  model.add_layer(conv);
  model.add_layer(layer("relu", graph::LayerKind::kReLU, img, img));
  model.add_layer(layer("add", graph::LayerKind::kAdd, img, img));
  graph::Layer fc = layer("fc", graph::LayerKind::kFullyConnected, img,
                          graph::TensorShape({2, 10}));
  fc.weight_elems = 2560;
  model.add_layer(fc);
  model.add_edge(0, 3);
  model.add_edge(1, 4);
  return model;
}

/// Every optional section set at once: skip edges, `distributed`, a
/// two-node fleet whose weak node's NVMe is contended, and non-default
/// delivery fields (limits, probe_feasible_batch).
PlanRequest fixture_request() {
  PlanRequest request;
  request.model = fixture_model();
  request.device = sim::test_device_tiered();
  request.planner.min_blocks = 1;
  request.planner.max_blocks = 5;
  request.planner.anneal_iterations = 9;
  request.planner.anneal_workers = 2;
  request.planner.seed = 0xFEEDFACE12345678ull;
  request.planner.schedule.prefetch_window = 3;
  request.planner.schedule.reserved_host_bytes = 96;
  request.optimizer.kind = OptimizerSpec::Kind::kSgdMomentum;
  request.optimizer.host_resident = false;
  core::DistributedOptions dist;
  dist.num_gpus = 8;
  dist.net.gpus_per_node = 2;
  dist.exchange = core::ExchangeMode::kBulk;
  dist.iterations = 4;
  dist.weight_shard_fraction = 0.5;
  request.distributed = dist;
  request.fleet = place::mixed_generation_fleet(1, 1, 64_GiB);
  request.fleet->strategy = place::PlacementStrategy::kRoundRobin;
  request.fleet->net.inter_latency = 12e-6;
  request.probe_feasible_batch = false;
  request.limits.deadline = 2.5;
  request.limits.max_candidates = 777;
  return request;
}

/// A plan small enough to read in the fixture: two blocks, a hierarchy,
/// an exchange and a fleet placement, so the spliced partial covers
/// every optional plan section.
Plan fixture_partial_plan() {
  Plan plan;
  plan.model_name = "fixture-net";
  plan.batch = 2;
  plan.model_layers = 5;
  plan.device = sim::test_device_tiered();
  plan.schedule.strategy = "karma+recompute";
  plan.schedule.blocks = {{0, 3}, {3, 5}};
  sim::BlockCost cost;
  cost.fwd_time = 0.25;
  cost.bwd_time = 0.5;
  cost.act_bytes = 512;
  cost.boundary_bytes = 128;
  cost.param_bytes = 64;
  cost.grad_bytes = 64;
  plan.schedule.costs = {cost, cost};
  plan.schedule.capacity = 2048;
  plan.schedule.hierarchy = tier::test_hierarchy();
  sim::Op fwd;
  fwd.block = 1;
  sim::Op swap;
  swap.kind = sim::OpKind::kSwapOut;
  swap.tier = tier::Tier::kNvme;
  swap.residency = tier::Residency::kWeightShard;
  swap.bytes = 512;
  swap.after_op = 0;
  plan.schedule.ops = {fwd, swap};
  plan.policies = {core::BlockPolicy::kSwapNvme, core::BlockPolicy::kRecompute};
  plan.iteration_time = 1.5;
  plan.first_iteration_time = 1.75;
  plan.occupancy = 0.5;
  plan.trace.makespan = 1.5;
  plan.trace.peak_resident = 1536;
  net::ExchangePhase phase;
  phase.launch_after_block = 0;
  phase.blocks = {1, 0};
  phase.bytes = 128;
  phase.allreduce_time = 0.0625;
  plan.exchange = net::ExchangePlan{{phase}};
  plan.weights_resident = false;
  place::PlacementPlan placement;
  placement.strategy = place::PlacementStrategy::kRoundRobin;
  placement.blocks = {{0, 5}};
  placement.owner = {1};
  place::NodeSummary node;
  node.name = "v100-0";
  node.device_name = "test-1MiB";
  node.owned_blocks = 1;
  node.owned_param_bytes = 64;
  node.owned_grad_bytes = 32;
  node.total_time = 1.5;
  placement.nodes = {place::NodeSummary{}, node};
  placement.straggler = 1;
  placement.iteration_time = 1.5;
  plan.placement = placement;
  return plan;
}

PlanError fixture_error() {
  PlanError e;
  e.code = PlanErrorCode::kDeadline;
  e.message = "budget ran out \"mid-search\"";
  e.model = "fixture-net";
  e.device = "test-1MiB";
  e.violating_layer = 3;
  e.violating_block = 1;
  e.deficits.push_back({tier::Tier::kHost, 6000, 4096});
  e.deficits.push_back({tier::Tier::kNvme, 70000, 65536});
  e.nearest_feasible_batch = 1;
  e.probe_candidates = 6;
  e.probe_cache_hits = 2;
  e.from_negative_cache = true;
  e.retry_after = 0.125;
  e.partial = std::make_shared<const Plan>(fixture_partial_plan());
  return e;
}

/// Compares `actual` with tests/golden/<name> byte for byte, or rewrites
/// the file under KARMA_REGEN_GOLDEN=1.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/" + name;
  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << path
                         << " — regenerate with KARMA_REGEN_GOLDEN=1 "
                            "./test_request_io";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << name << " drifted; if intentional, regenerate with "
                 "KARMA_REGEN_GOLDEN=1 and review the diff";
}

TEST(RequestIo, RequestGoldenFixtureMatches) {
  const std::string json = request_to_json(fixture_request());
  expect_golden("request_fixture.json", json);
  auto back = request_from_json(json);
  ASSERT_TRUE(back.has_value()) << back.error().message;
  EXPECT_EQ(request_to_json(back.value()), json);
  EXPECT_EQ(back->limits.max_candidates, 777);
  EXPECT_FALSE(back->probe_feasible_batch);
}

TEST(RequestIo, ErrorGoldenFixtureMatches) {
  const std::string json = error_to_json(fixture_error());
  expect_golden("error_fixture.json", json);
  const PlanError back = error_from_json(json);
  ASSERT_EQ(back.code, PlanErrorCode::kDeadline) << back.message;
  ASSERT_NE(back.partial, nullptr);
  EXPECT_EQ(error_to_json(back), json);
}

TEST(RequestIo, FixtureRequestKeyIsPinned) {
  // Pins the distributed, fleet and NVMe-contention key words the ResNet
  // pin never reaches. Changing this hex means every cached plan misses:
  // bump fp_version in src/cache/request_key.cpp in the same change.
  EXPECT_EQ(cache::request_key(fixture_request()).hex(),
            "089b8d2316e8bd0059582a79b10f2057");
}

TEST(RequestIo, ClientKeyIsTheDaemonKeyForEveryZooModelAndShape) {
  // RemoteSession looks a plan up by request_key(request) before it ships
  // anything; the daemon inserts under the key of the request it parsed
  // from request_to_json. Were the two ever to differ, every socket hit
  // of that shape would miss silently, forever.
  std::vector<std::pair<std::string, PlanRequest>> shapes;
  const auto model_request = [](graph::Model model) {
    PlanRequest request;
    request.model = std::move(model);
    request.device = sim::v100_abci();
    return request;
  };
  shapes.emplace_back("resnet50", model_request(graph::make_resnet50(256)));
  shapes.emplace_back("resnet200", model_request(graph::make_resnet200(64)));
  shapes.emplace_back("vgg16", model_request(graph::make_vgg16(128)));
  shapes.emplace_back("wrn28_10", model_request(graph::make_wrn28_10(256)));
  shapes.emplace_back("resnet1001",
                      model_request(graph::make_resnet1001(128)));
  shapes.emplace_back("unet", model_request(graph::make_unet(8)));
  shapes.emplace_back("highres",
                      model_request(graph::make_highres_segmenter(1, 1024)));
  shapes.emplace_back("lstm", model_request(graph::make_lstm_seq2seq(32)));
  for (int i = 0; i < 5; ++i)
    shapes.emplace_back(
        "megatron" + std::to_string(i),
        model_request(graph::make_transformer(graph::megatron_config(i), 4)));
  shapes.emplace_back("turing_nlg",
                      model_request(graph::make_transformer(
                          graph::turing_nlg_config(), 1)));
  shapes.emplace_back("transformer_chain",
                      model_request(graph::make_transformer_chain(
                          graph::megatron_config(0), 4)));
  {
    std::ifstream in(std::string(KARMA_SOURCE_DIR) +
                     "/tests/golden/request_fixture.json");
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto fixture = request_from_json(buffer.str());
    ASSERT_TRUE(fixture.has_value()) << fixture.error().describe();
    shapes.emplace_back("request_fixture.json", std::move(fixture).value());
  }
  PlanRequest data_parallel = resnet_request();
  data_parallel.distributed = core::DistributedOptions{};
  data_parallel.distributed->num_gpus = 8;
  shapes.emplace_back("data_parallel", data_parallel);
  PlanRequest fleet = model_request(
      graph::make_transformer_chain(graph::megatron_config(0), 4));
  fleet.fleet = place::mixed_generation_fleet(2, 2, 64_GiB);
  shapes.emplace_back("fleet", fleet);
  // "-0" is an integral token: a reader that takes it as +0.0 re-keys the
  // request, and every socket hit of it falls through to a plan frame.
  PlanRequest negative_zero = resnet_request();
  negative_zero.device.swap_latency = -0.0;
  shapes.emplace_back("swap_latency=-0.0", negative_zero);

  const std::string table_hash = "32eb4bb8f96e706e078ad8451cff977a";
  for (const auto& [name, request] : shapes) {
    SCOPED_TRACE(name);
    auto back = request_from_json(request_to_json(request));
    ASSERT_TRUE(back.has_value()) << back.error().describe();
    EXPECT_EQ(request_to_json(back.value()), request_to_json(request));
    for (const std::string& hash : {std::string(), table_hash})
      EXPECT_EQ(cache::request_key(request, hash).hex(),
                cache::request_key(back.value(), hash).hex());
  }
}

TEST(RequestIo, TypedReaderRejectsOverflowWideEscapesAndDeepNesting) {
  const std::string json = request_to_json(resnet_request());
  const auto with = [&](const std::string& from, const std::string& to) {
    std::string s = json;
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return s.replace(at, from.size(), to);
  };
  const auto rejects = [](const std::string& bad, const std::string& why) {
    const auto parsed = request_from_json(bad);
    ASSERT_FALSE(parsed.has_value()) << why;
    EXPECT_EQ(parsed.error().code, PlanErrorCode::kParseError);
    EXPECT_NE(parsed.error().message.find(why), std::string::npos)
        << parsed.error().message;
  };
  // An int field past int32, an int64 field past int64.
  rejects(with("\"max_blocks\":48", "\"max_blocks\":2147483648"),
          "max_blocks out of int range");
  rejects(with("\"weight_elems\":0", "\"weight_elems\":9223372036854775808"),
          "bad number '9223372036854775808'");
  // A \u escape past ASCII, in a name the reader would otherwise keep.
  rejects(with("\"name\":\"input\"", "\"name\":\"\\u00e9\""),
          "non-ASCII \\u escape unsupported");
  // Nesting past the bound, in a member the reader skips.
  rejects(with("\"version\":2,", "\"version\":2,\"x\":" +
                                     std::string(300, '[') +
                                     std::string(300, ']') + ","),
          "JSON nesting deeper than 256");
  // Within the bound, an unknown member is skipped.
  const auto deep = request_from_json(with(
      "\"version\":2,", "\"version\":2,\"x\":" + std::string(200, '[') +
                            std::string(200, ']') + ","));
  ASSERT_TRUE(deep.has_value()) << deep.error().describe();
  EXPECT_EQ(request_to_json(deep.value()), json);
}

TEST(RequestIo, DeviceWithScaleBeforeContentionStaysReadable) {
  // Devices written before the member order was unified listed `scale`
  // before `nvme_contention`; disk entries and clients holding such bytes
  // must still parse to the same device.
  place::FleetSpec fleet = place::mixed_generation_fleet(1, 1, 64_GiB);
  sim::DeviceSpec& weak = fleet.nodes[1].device;
  weak.scale.compute = 1.5;
  weak.scale.nvme_write = 0.75;
  const std::string json = fleet_to_json(fleet);
  const std::size_t scale = json.find("\"scale\":{");
  const std::size_t contention = json.find(",\"nvme_contention\":{");
  ASSERT_NE(scale, std::string::npos);
  ASSERT_NE(contention, std::string::npos);
  // Rebuild the weak device's tail in the older order, whatever order the
  // writer uses today.
  const std::size_t scale_end = json.find('}', scale) + 1;
  const std::size_t contention_end = json.find('}', contention) + 1;
  const std::string scale_member = json.substr(scale, scale_end - scale);
  const std::string contention_member =
      json.substr(contention + 1, contention_end - contention - 1);
  const std::size_t tail = std::min(scale, contention + 1);
  const std::size_t tail_end = std::max(scale_end, contention_end);
  std::string older = json;
  older.replace(tail, tail_end - tail,
                scale_member + "," + contention_member);
  ASSERT_LT(older.find("\"scale\""), older.find("\"nvme_contention\""));

  const place::FleetSpec back = fleet_from_json(older);
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_EQ(back.nodes[1].device.scale, weak.scale);
  EXPECT_EQ(back.nodes[1].device.nvme_contention, weak.nvme_contention);
  EXPECT_EQ(fleet_to_json(back), json);
}

}  // namespace
}  // namespace karma::api
