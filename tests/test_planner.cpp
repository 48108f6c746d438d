// Opt-1 / Opt-2: the KarmaPlanner end to end.
#include "src/core/planner.h"

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <thread>

#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"

namespace karma::core {
namespace {

PlannerOptions fast_options(bool recompute) {
  PlannerOptions o;
  o.enable_recompute = recompute;
  o.anneal_iterations = 30;
  return o;
}

/// Same blocks, policies and (bitwise) iteration time.
void expect_same_plan(const PlanResult& got, const PlanResult& want) {
  ASSERT_EQ(got.schedule.blocks.size(), want.schedule.blocks.size());
  for (std::size_t b = 0; b < got.schedule.blocks.size(); ++b) {
    EXPECT_EQ(got.schedule.blocks[b].first_layer,
              want.schedule.blocks[b].first_layer);
    EXPECT_EQ(got.schedule.blocks[b].last_layer,
              want.schedule.blocks[b].last_layer);
  }
  EXPECT_EQ(got.policies, want.policies);
  EXPECT_EQ(got.iteration_time, want.iteration_time);
}

TEST(CleanCuts, ChainHasAllPositions) {
  const graph::Model vgg = graph::make_vgg16(1);
  const auto cuts = clean_cut_points(vgg);
  EXPECT_EQ(cuts.size(), vgg.num_layers() + 1);
}

TEST(CleanCuts, ResnetCutsAvoidResidualInteriors) {
  const graph::Model rn = graph::make_resnet50(1);
  const auto cuts = clean_cut_points(rn);
  EXPECT_GT(cuts.size(), 10u);                      // between-block cuts exist
  EXPECT_LT(cuts.size(), rn.num_layers());          // interiors excluded
  EXPECT_EQ(cuts.front(), 0);
  EXPECT_EQ(cuts.back(), static_cast<int>(rn.num_layers()));
  // No cut may be crossed by a non-chain edge.
  for (const int cut : cuts) {
    for (const auto& l : rn.layers())
      for (int s : rn.succs(l.id)) {
        if (s == l.id + 1) continue;
        EXPECT_FALSE(l.id + 1 < cut && cut <= s)
            << "cut " << cut << " crosses edge " << l.id << "->" << s;
      }
  }
}

TEST(Planner, InCoreBatchPlansAtFullOccupancy) {
  const graph::Model m = graph::make_resnet50(64);
  ASSERT_LT(graph::in_core_footprint(m), sim::v100_abci().memory_capacity);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  const PlanResult r = planner.plan();
  EXPECT_NEAR(r.occupancy, 1.0, 1e-9);
}

TEST(Planner, OutOfCoreBatchIsFeasible) {
  const graph::Model m = graph::make_resnet50(512);
  ASSERT_GT(graph::in_core_footprint(m), sim::v100_abci().memory_capacity);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  const PlanResult r = planner.plan();
  EXPECT_GT(r.iteration_time, 0.0);
  EXPECT_LE(r.trace.peak_resident, sim::v100_abci().memory_capacity);
  EXPECT_GT(r.schedule.blocks.size(), 1u);
}

TEST(Planner, RecomputeNeverHurts) {
  // Opt-2 only accepts engine-verified improvements, so KARMA+recompute
  // must be at least as fast as plain KARMA on every workload.
  for (std::int64_t batch : {256, 512}) {
    const graph::Model m = graph::make_resnet50(batch);
    const PlanResult plain =
        KarmaPlanner(m, sim::v100_abci(), fast_options(false)).plan();
    const PlanResult recomp =
        KarmaPlanner(m, sim::v100_abci(), fast_options(true)).plan();
    EXPECT_LE(recomp.iteration_time, plain.iteration_time * 1.0001)
        << "batch " << batch;
  }
}

TEST(Planner, ThroughputDegradesGracefullyBeyondMemory) {
  // Fig. 5's shape: samples/s decreases as batch grows beyond capacity,
  // but does not fall off a cliff (the capacity-based strategy).
  const PlanResult small =
      KarmaPlanner(graph::make_resnet50(128), sim::v100_abci(),
                   fast_options(true))
          .plan();
  const PlanResult large =
      KarmaPlanner(graph::make_resnet50(512), sim::v100_abci(),
                   fast_options(true))
          .plan();
  const double tput_small = 128.0 / small.iteration_time;
  const double tput_large = 512.0 / large.iteration_time;
  EXPECT_LT(tput_large, tput_small * 1.05);
  EXPECT_GT(tput_large, tput_small * 0.3);  // no worse than ~3x degradation
}

TEST(Planner, UnetLongSkipBlocksNotSwapped) {
  const graph::Model unet = graph::make_unet(16);  // out-of-core
  const KarmaPlanner planner(unet, sim::v100_abci(), fast_options(true));
  const PlanResult r = planner.plan();
  const sim::LayerCostTable table(unet, sim::v100_abci());
  std::vector<int> reach;
  for (const auto& b : r.schedule.blocks) reach.push_back(table.reach(b));
  const auto mask = blocks_with_long_skips(r.schedule.blocks, reach);
  for (std::size_t b = 0; b < r.schedule.blocks.size(); ++b) {
    if (mask[b]) {
      EXPECT_FALSE(is_swap_policy(r.policies[b]))
          << "contracting-path block " << b << " must not swap (III-F.4)";
    }
  }
}

TEST(Planner, InfeasibleModelThrows) {
  // Weights alone beyond device capacity: single-GPU planning impossible.
  const graph::Model big =
      graph::make_transformer(graph::megatron_config(4), 1);
  const KarmaPlanner planner(big, sim::v100_abci(), fast_options(true));
  EXPECT_THROW(planner.plan(), std::runtime_error);
}

TEST(Planner, DeterministicAcrossRuns) {
  const graph::Model m = graph::make_resnet200(12);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  const PlanResult a = planner.plan();
  const PlanResult b = planner.plan();
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
  ASSERT_EQ(a.schedule.blocks.size(), b.schedule.blocks.size());
  for (std::size_t i = 0; i < a.schedule.blocks.size(); ++i) {
    EXPECT_EQ(a.schedule.blocks[i].first_layer,
              b.schedule.blocks[i].first_layer);
    EXPECT_EQ(a.policies[i], b.policies[i]);
  }
}

TEST(Planner, EvaluateRejectsInfeasibleCandidate) {
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  // One giant block cannot fit out-of-core either (its activations exceed
  // device capacity in a single allocation).
  const std::vector<sim::Block> one = {{0, static_cast<int>(m.num_layers())}};
  const std::vector<BlockPolicy> policies = {BlockPolicy::kSwap};
  EXPECT_EQ(planner.evaluate(one, policies, "giant"), std::nullopt);
}

TEST(Planner, BlockingRespectsCleanCuts) {
  const graph::Model m = graph::make_resnet50(384);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  const PlanResult r = planner.plan();
  const auto cuts = clean_cut_points(m);
  for (const auto& blk : r.schedule.blocks) {
    EXPECT_TRUE(std::binary_search(cuts.begin(), cuts.end(), blk.first_layer))
        << "boundary " << blk.first_layer << " not a clean cut";
  }
}

TEST(Planner, PlanFromFallsBackToColdWhenTheSeedDoesNotTileTheModel) {
  // A plan searched for another model is no seed. ResNet-50's plan is
  // shorter than ResNet-200 (it used to come back as a 2-block plan
  // ending at layer 172, marked warm-started); ResNet-200's is longer
  // than ResNet-50 (it used to throw std::out_of_range). Either way
  // plan_from must run the cold search and return plan()'s result.
  const graph::Model short_model = graph::make_resnet50(256);
  const graph::Model long_model = graph::make_resnet200(16);
  const KarmaPlanner short_planner(short_model, sim::v100_abci(),
                                   fast_options(true));
  const KarmaPlanner long_planner(long_model, sim::v100_abci(),
                                  fast_options(true));
  const PlanResult short_cold = short_planner.plan();
  const PlanResult long_cold = long_planner.plan();

  const PlanResult from_short =
      long_planner.plan_from(short_cold.schedule.blocks, short_cold.policies);
  EXPECT_FALSE(from_short.search_stats.warm_started);
  expect_same_plan(from_short, long_cold);

  const PlanResult from_long =
      short_planner.plan_from(long_cold.schedule.blocks, long_cold.policies);
  EXPECT_FALSE(from_long.search_stats.warm_started);
  expect_same_plan(from_long, short_cold);

  // The model's own plan still warm-starts.
  EXPECT_TRUE(short_planner.plan_from(short_cold.schedule.blocks,
                                      short_cold.policies)
                  .search_stats.warm_started);
}

TEST(Planner, SeedTilesModelOnlyForContiguousFullCoverage) {
  const graph::Model m = graph::make_resnet50(8);
  const int n = static_cast<int>(m.num_layers());
  const std::vector<BlockPolicy> two = {BlockPolicy::kSwap,
                                        BlockPolicy::kResident};
  EXPECT_TRUE(seed_tiles_model(m, {{0, 10}, {10, n}}, two));
  EXPECT_FALSE(seed_tiles_model(m, {}, {}));
  EXPECT_FALSE(seed_tiles_model(m, {{0, 10}, {10, n}}, {two[0]}));  // policies
  EXPECT_FALSE(seed_tiles_model(m, {{0, 10}, {12, n}}, two));       // gap
  EXPECT_FALSE(seed_tiles_model(m, {{0, 10}, {8, n}}, two));        // overlap
  EXPECT_FALSE(seed_tiles_model(m, {{1, 10}, {10, n}}, two));       // start
  EXPECT_FALSE(seed_tiles_model(m, {{0, 10}, {10, n - 1}}, two));   // short
  EXPECT_FALSE(seed_tiles_model(m, {{0, 10}, {10, n + 1}}, two));   // long
  EXPECT_FALSE(seed_tiles_model(m, {{0, 0}, {0, n}}, two));         // empty
}

TEST(Planner, ConcurrentPlansOnOneInstanceMatchSerial) {
  // Each plan() call owns its memo tables, so one const planner is safe to
  // share between threads (this test runs under TSan in CI).
  const graph::Model m = graph::make_resnet50(512);
  const KarmaPlanner planner(m, sim::v100_abci(), fast_options(true));
  const PlanResult serial = planner.plan();
  ASSERT_GT(serial.schedule.blocks.size(), 2u);  // the portfolio anneal runs
  std::optional<PlanResult> a;
  std::optional<PlanResult> b;
  std::thread ta([&] { a = planner.plan(); });
  std::thread tb([&] { b = planner.plan(); });
  ta.join();
  tb.join();
  expect_same_plan(*a, serial);
  expect_same_plan(*b, serial);
}

TEST(Planner, PackedCandidateKeysAreDistinct) {
  // Blockings of a 12-layer model: nested prefixes that differ only in
  // block count, same counts with moved boundaries, and layer indices
  // whose bytes would collide in a narrower encoding.
  const std::vector<std::vector<sim::Block>> blockings = {
      {{0, 12}},
      {{0, 4}, {4, 12}},
      {{0, 4}, {4, 8}},
      {{0, 4}, {4, 8}, {8, 12}},
      {{0, 4}, {4, 8}, {8, 10}, {10, 12}},
      {{0, 5}, {5, 12}},
      {{0, 256}, {256, 300}},
      {{0, 1}, {1, 300}},
      {{0, 300}},
  };
  const std::vector<BlockPolicy> vocabulary = {
      BlockPolicy::kResident, BlockPolicy::kSwap, BlockPolicy::kRecompute,
      BlockPolicy::kSwapNvme};
  std::set<std::string> keys;
  std::size_t candidates = 0;
  std::string key;
  for (const auto& blocks : blockings) {
    // Every policy vector over the blocking (4^blocks of them).
    std::vector<std::size_t> digit(blocks.size(), 0);
    while (true) {
      std::vector<BlockPolicy> policies;
      for (const std::size_t d : digit) policies.push_back(vocabulary[d]);
      pack_candidate_key(blocks, policies, key);
      EXPECT_EQ(key.size(), 5 * blocks.size());
      keys.insert(key);
      ++candidates;
      std::size_t i = 0;
      while (i < digit.size() && ++digit[i] == vocabulary.size()) digit[i++] = 0;
      if (i == digit.size()) break;
    }
  }
  EXPECT_EQ(keys.size(), candidates);
}

}  // namespace
}  // namespace karma::core
