// karma::calib end to end: profile capture + artifact JSON, robust table
// fitting, the sim::CostScale overlay, RequestKey invalidation under a
// calibration change, warm-start plan repair, and the Engine's
// calibrate -> invalidate -> repair -> re-cache loop (DESIGN.md §13).
// Golden fixtures regenerate with KARMA_REGEN_GOLDEN=1 ./test_calib.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/api/engine.h"
#include "src/cache/request_key.h"
#include "src/calib/profile.h"
#include "src/calib/repair.h"
#include "src/calib/table.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"

namespace karma::calib {
namespace {

// ---------------------------------------------------------------------------
// CostKind vocabulary and the CostScale overlay
// ---------------------------------------------------------------------------

TEST(CostKind, NamesRoundTrip) {
  for (const CostKind kind : kAllCostKinds) {
    const auto back = cost_kind_from(cost_kind_name(kind));
    ASSERT_TRUE(back.has_value()) << cost_kind_name(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(cost_kind_from("warp-drive").has_value());
}

TEST(CostScale, DefaultIsIdentityAndChangesNoCost) {
  const sim::DeviceSpec base = sim::v100_abci_nvme();
  EXPECT_TRUE(base.scale.identity());
  sim::DeviceSpec scaled = base;
  scaled.scale.identity();  // still identity: times must be bit-equal
  const Bytes bytes = 64ll << 20;
  EXPECT_EQ(base.h2d_time(bytes), scaled.h2d_time(bytes));
  EXPECT_EQ(base.kernel_time(graph::LayerKind::kConv2d, 1e12, bytes),
            scaled.kernel_time(graph::LayerKind::kConv2d, 1e12, bytes));
  EXPECT_EQ(base.nvme_read_time(bytes), scaled.nvme_read_time(bytes));
}

TEST(CostScale, FactorsMultiplyEachCostPath) {
  const sim::DeviceSpec base = sim::v100_abci_nvme();
  sim::DeviceSpec scaled = base;
  scaled.scale.compute = 2.0;
  scaled.scale.h2d = 3.0;
  scaled.scale.d2h = 4.0;
  scaled.scale.nvme_read = 5.0;
  scaled.scale.nvme_write = 6.0;
  scaled.scale.cpu_update = 7.0;
  EXPECT_FALSE(scaled.scale.identity());
  const Bytes bytes = 32ll << 20;
  EXPECT_DOUBLE_EQ(scaled.kernel_time(graph::LayerKind::kConv2d, 1e12, bytes),
                   2.0 * base.kernel_time(graph::LayerKind::kConv2d, 1e12,
                                          bytes));
  EXPECT_DOUBLE_EQ(scaled.h2d_time(bytes), 3.0 * base.h2d_time(bytes));
  EXPECT_DOUBLE_EQ(scaled.d2h_time(bytes), 4.0 * base.d2h_time(bytes));
  EXPECT_DOUBLE_EQ(scaled.nvme_read_time(bytes),
                   5.0 * base.nvme_read_time(bytes));
  EXPECT_DOUBLE_EQ(scaled.nvme_write_time(bytes),
                   6.0 * base.nvme_write_time(bytes));
  EXPECT_DOUBLE_EQ(scaled.cpu_update_time(bytes),
                   7.0 * base.cpu_update_time(bytes));
}

// ---------------------------------------------------------------------------
// ProfileRecorder and the profile artifact
// ---------------------------------------------------------------------------

TEST(ProfileRecorder, DerivesPredictionsFromTheDevice) {
  const sim::DeviceSpec device = sim::v100_abci_nvme();
  ProfileRecorder recorder(device, "rn50");
  const Bytes bytes = 16ll << 20;
  recorder.record(CostKind::kH2d, bytes, 0.005);
  recorder.record(CostKind::kCompute, bytes, 0.001);
  recorder.record(CostKind::kNvmeRead, bytes, 0.02);
  ASSERT_EQ(recorder.sample_count(), 3u);
  const ProfileArtifact artifact = recorder.artifact();
  EXPECT_EQ(artifact.device_class, device.name);
  EXPECT_EQ(artifact.model_name, "rn50");
  EXPECT_DOUBLE_EQ(artifact.samples[0].predicted, device.h2d_time(bytes));
  EXPECT_GT(artifact.samples[1].predicted, 0.0);
  EXPECT_DOUBLE_EQ(artifact.samples[2].predicted,
                   device.read_from_tier_time(tier::Tier::kNvme, bytes));
}

TEST(ProfileRecorder, DropsNvmeSamplesWithoutAnNvmeTier) {
  ProfileRecorder recorder(sim::v100_abci());  // no NVMe on this platform
  recorder.record(CostKind::kNvmeWrite, 1 << 20, 0.01);
  recorder.record(CostKind::kNvmeRead, 1 << 20, 0.01);
  EXPECT_EQ(recorder.sample_count(), 0u);
  recorder.record(CostKind::kD2h, 1 << 20, 0.01);
  EXPECT_EQ(recorder.sample_count(), 1u);
}

/// Hand-built artifact with round numbers — stable across platforms.
ProfileArtifact golden_profile() {
  ProfileArtifact artifact;
  artifact.device_class = "golden-device";
  artifact.model_name = "golden-model";
  artifact.samples = {
      {CostKind::kCompute, 1024, 0.5, 0.75},
      {CostKind::kH2d, 2048, 0.25, 0.5},
      {CostKind::kNvmeWrite, 4096, 1.0, 1.5},
  };
  return artifact;
}

TEST(ProfileArtifact, JsonRoundTripsExactly) {
  const ProfileArtifact artifact = golden_profile();
  const ProfileArtifact back = ProfileArtifact::from_json(artifact.to_json());
  EXPECT_EQ(back, artifact);
  EXPECT_EQ(back.to_json(), artifact.to_json());
}

TEST(ProfileArtifact, RejectsBadVersionSkipsUnknownKinds) {
  EXPECT_THROW(ProfileArtifact::from_json("{\"version\":99,\"device_class\":"
                                          "\"x\",\"model_name\":\"\","
                                          "\"samples\":[]}"),
               std::runtime_error);
  EXPECT_THROW(ProfileArtifact::from_json("not json"), std::runtime_error);
  // Unknown kind names are forward-compat: skipped, not fatal.
  const ProfileArtifact sparse = ProfileArtifact::from_json(
      "{\"version\":1,\"device_class\":\"x\",\"model_name\":\"\","
      "\"samples\":[{\"kind\":\"tachyon\",\"bytes\":1,\"predicted\":1.0,"
      "\"measured\":2.0},{\"kind\":\"h2d\",\"bytes\":1,\"predicted\":1.0,"
      "\"measured\":2.0}]}");
  ASSERT_EQ(sparse.samples.size(), 1u);
  EXPECT_EQ(sparse.samples[0].kind, CostKind::kH2d);
}

TEST(ProfileArtifact, GoldenFixtureMatches) {
  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/profile_fixture.json";
  const std::string actual = golden_profile().to_json();

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_calib";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(actual, expected)
      << "profile JSON schema drifted; if intentional, regenerate the "
         "fixture with KARMA_REGEN_GOLDEN=1 and review the diff";
  EXPECT_EQ(ProfileArtifact::from_json(expected).to_json(), expected);
}

// ---------------------------------------------------------------------------
// fit(): robust median-ratio estimation
// ---------------------------------------------------------------------------

/// A profile whose measured times are `factor` x the analytic prediction
/// for `kind`, across a spread of sizes.
ProfileArtifact synthetic_profile(const sim::DeviceSpec& device,
                                  CostKind kind, double factor, int n = 8) {
  ProfileRecorder recorder(device, "synthetic");
  for (int i = 0; i < n; ++i) {
    const Bytes bytes = (Bytes{1} << 20) << (i % 5);
    double predicted = 0.0;
    switch (kind) {
      case CostKind::kH2d: predicted = device.h2d_time(bytes); break;
      case CostKind::kD2h: predicted = device.d2h_time(bytes); break;
      case CostKind::kCpuUpdate:
        predicted = device.cpu_update_time(bytes);
        break;
      default:
        predicted = device.kernel_time(graph::LayerKind::kReLU, 0.0, bytes);
    }
    recorder.record_predicted(kind, bytes, predicted, factor * predicted);
  }
  return recorder.artifact();
}

TEST(Fit, RecoversASystematicFactor) {
  const sim::DeviceSpec device = sim::v100_abci();
  const CalibrationTable table =
      fit({synthetic_profile(device, CostKind::kH2d, 1.7)});
  EXPECT_NEAR(table.factor(device.name, CostKind::kH2d), 1.7, 1e-9);
  // Kinds with no samples stay at the identity.
  EXPECT_DOUBLE_EQ(table.factor(device.name, CostKind::kCompute), 1.0);
  EXPECT_EQ(table.sample_count, 8);
}

TEST(Fit, OnePathologicalSampleIsRejected) {
  const sim::DeviceSpec device = sim::v100_abci();
  ProfileArtifact profile = synthetic_profile(device, CostKind::kD2h, 1.3);
  // A page-fault-shaped outlier: 100x the prediction, one sample.
  ProfileSample bad = profile.samples.front();
  bad.measured = bad.predicted * 100.0;
  profile.samples.push_back(bad);
  const CalibrationTable table = fit({profile});
  EXPECT_NEAR(table.factor(device.name, CostKind::kD2h), 1.3, 1e-9);
  EXPECT_GE(table.rejected_outliers, 1);
}

TEST(Fit, FactorsAreClampedToASaneRange) {
  const sim::DeviceSpec device = sim::v100_abci();
  const FitOptions options;
  const CalibrationTable high =
      fit({synthetic_profile(device, CostKind::kH2d, 500.0)});
  EXPECT_DOUBLE_EQ(high.factor(device.name, CostKind::kH2d),
                   options.max_factor);
  const CalibrationTable low =
      fit({synthetic_profile(device, CostKind::kH2d, 1e-4)});
  EXPECT_DOUBLE_EQ(low.factor(device.name, CostKind::kH2d),
                   options.min_factor);
}

TEST(Fit, EmptyProfilesYieldTheIdentityTable) {
  const CalibrationTable table = fit({});
  EXPECT_TRUE(table.empty());
  EXPECT_DOUBLE_EQ(table.factor("anything", CostKind::kCompute), 1.0);
}

// ---------------------------------------------------------------------------
// CalibrationTable: lookup, JSON, hashing, apply()
// ---------------------------------------------------------------------------

CalibrationTable golden_table() {
  CalibrationTable table;
  table.factors["golden-device"] = {{"compute", 1.5}, {"h2d", 2.0}};
  table.factors["*"] = {{"nvme_read", 1.25}};
  table.sample_count = 8;
  table.rejected_outliers = 1;
  return table;
}

TEST(CalibrationTable, ExactCellThenWildcardThenIdentity) {
  const CalibrationTable table = golden_table();
  EXPECT_DOUBLE_EQ(table.factor("golden-device", CostKind::kH2d), 2.0);
  // Wildcard serves kinds the exact row lacks, and unknown devices.
  EXPECT_DOUBLE_EQ(table.factor("golden-device", CostKind::kNvmeRead), 1.25);
  EXPECT_DOUBLE_EQ(table.factor("other-device", CostKind::kNvmeRead), 1.25);
  EXPECT_DOUBLE_EQ(table.factor("other-device", CostKind::kCompute), 1.0);
}

TEST(CalibrationTable, JsonRoundTripAndContentHash) {
  const CalibrationTable table = golden_table();
  const CalibrationTable back = CalibrationTable::from_json(table.to_json());
  EXPECT_EQ(back, table);
  EXPECT_EQ(back.content_hash(), table.content_hash());
  EXPECT_EQ(table.content_hash().size(), 32u);  // digest128 hex

  CalibrationTable perturbed = table;
  perturbed.factors["*"]["nvme_read"] = 1.26;
  EXPECT_NE(perturbed.content_hash(), table.content_hash());
}

TEST(CalibrationTable, RejectsMalformedTables) {
  EXPECT_THROW(CalibrationTable::from_json("{\"version\":7,\"factors\":{}}"),
               std::runtime_error);
  // Non-finite and non-positive factors are corrupt, not creative.
  EXPECT_THROW(CalibrationTable::from_json(
                   "{\"version\":1,\"factors\":{\"d\":{\"h2d\":-1.0}}}"),
               std::runtime_error);
  EXPECT_THROW(CalibrationTable::from_json(
                   "{\"version\":1,\"factors\":{\"d\":{\"h2d\":1e999}}}"),
               std::runtime_error);
}

TEST(CalibrationTable, GoldenFixtureMatches) {
  const std::string path = std::string(KARMA_SOURCE_DIR) +
                           "/tests/golden/calibration_fixture.json";
  const std::string actual = golden_table().to_json();

  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_calib";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(actual, expected)
      << "calibration JSON schema drifted; if intentional, regenerate the "
         "fixture with KARMA_REGEN_GOLDEN=1 and review the diff";
  EXPECT_EQ(CalibrationTable::from_json(expected).to_json(), expected);
}

TEST(Apply, ComposesOntoTheDeviceScale) {
  CalibrationTable table;
  table.factors["*"] = {{"h2d", 2.0}, {"compute", 1.5}};
  sim::DeviceSpec device = sim::v100_abci();
  device.scale.h2d = 3.0;  // pre-existing overlay composes, not replaces
  const sim::DeviceSpec calibrated = apply(table, device);
  EXPECT_DOUBLE_EQ(calibrated.scale.h2d, 6.0);
  EXPECT_DOUBLE_EQ(calibrated.scale.compute, 1.5);
  EXPECT_DOUBLE_EQ(calibrated.scale.d2h, 1.0);
  EXPECT_EQ(calibrated.name, device.name);
  EXPECT_EQ(calibrated.memory_capacity, device.memory_capacity);
}

// ---------------------------------------------------------------------------
// RequestKey invalidation: the calibration hash joins the preamble
// ---------------------------------------------------------------------------

TEST(RequestKey, CalibrationHashReKeysEveryRequest) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(64);
  request.device = sim::v100_abci();
  const auto analytic = cache::request_key(request);
  const auto calibrated = cache::request_key(request, "deadbeef");
  EXPECT_NE(analytic, calibrated);
  EXPECT_EQ(analytic, cache::request_key(request, ""));
  EXPECT_EQ(calibrated, cache::request_key(request, "deadbeef"));
  EXPECT_NE(cache::request_key(request, "deadbeef"),
            cache::request_key(request, "deadbeee"));
}

TEST(RequestKey, DeviceScaleFieldsAreKeyed) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(64);
  request.device = sim::v100_abci();
  const auto analytic = cache::request_key(request);
  request.device.scale.h2d = 2.0;
  EXPECT_NE(cache::request_key(request), analytic);
}

// ---------------------------------------------------------------------------
// repair(): warm-start re-planning under a corrected cost model
// ---------------------------------------------------------------------------

core::PlannerOptions repair_test_options() {
  core::PlannerOptions options;
  options.anneal_iterations = 120;
  return options;
}

TEST(Repair, BudgetIsAScaledFloor) {
  EXPECT_EQ(repair_anneal_budget(2000), 500);
  EXPECT_EQ(repair_anneal_budget(120), 60);   // floored
  EXPECT_EQ(repair_anneal_budget(0), 60);
}

TEST(Repair, RepairedPlanIsFeasibleAndNeverWorseThanCold) {
  const graph::Model model = graph::make_resnet50(512);  // out-of-core
  const sim::DeviceSpec device = sim::v100_abci();
  const core::PlannerOptions options = repair_test_options();
  const core::PlanResult cold =
      core::KarmaPlanner(model, device, options).plan();

  CalibrationTable table;  // swaps measured ~4x slower than modeled
  table.factors["*"] = {{"h2d", 4.0}, {"d2h", 4.0}};

  const core::PlanResult repaired =
      repair(model, device, table, cold.schedule.blocks, cold.policies,
             RepairOptions{options});
  EXPECT_TRUE(repaired.search_stats.warm_started);
  // Both searches are timed, so the repair-vs-cold speedup is defined.
  ASSERT_GT(repaired.search_stats.search_seconds, 0.0);
  EXPECT_GT(cold.search_stats.search_seconds /
                repaired.search_stats.search_seconds,
            0.0);

  // Feasible under the calibrated model: within capacity, sane makespan.
  const sim::DeviceSpec calibrated = apply(table, device);
  EXPECT_LE(repaired.trace.peak_resident, calibrated.memory_capacity);
  EXPECT_GT(repaired.iteration_time, 0.0);

  // Never worse than a cold search under the same calibrated model and
  // the same seed/options: the warm start only ADDS candidates the cold
  // enumeration would also reach, and the anneal+Opt-2 refinements run
  // identically after.
  const core::PlanResult cold_calibrated =
      core::KarmaPlanner(model, calibrated, options).plan();
  EXPECT_LE(repaired.iteration_time,
            cold_calibrated.iteration_time * (1.0 + 1e-12));
}

TEST(Repair, EmptySeedFallsBackToColdSearch) {
  const graph::Model model = graph::make_resnet50(128);
  const sim::DeviceSpec device = sim::v100_abci();
  CalibrationTable table;
  table.factors["*"] = {{"compute", 1.5}};
  const core::PlanResult result =
      repair(model, device, table, {}, {}, RepairOptions{repair_test_options()});
  EXPECT_FALSE(result.search_stats.warm_started);  // nothing to seed from
  EXPECT_GT(result.iteration_time, 0.0);
}

// ---------------------------------------------------------------------------
// Engine: calibrate -> invalidate -> repair -> re-cache
// ---------------------------------------------------------------------------

TEST(EngineCalibration, SwapInvalidatesRepairsAndReCaches) {
  api::EngineOptions options;  // memory-only cache (no dir, no env in CI)
  auto engine = api::Engine::create(options);
  ASSERT_EQ(engine->calibration_hash(), "");

  api::PlanRequest request;
  request.model = graph::make_resnet50(512);
  request.device = sim::v100_abci();
  request.planner.anneal_iterations = 60;

  const auto cold = engine->plan(request);
  ASSERT_TRUE(cold.has_value()) << cold.error().describe();
  EXPECT_FALSE(cold.value().search_stats.warm_started);
  ASSERT_TRUE(engine->try_cached(request).has_value());

  auto table = std::make_shared<const CalibrationTable>([] {
    CalibrationTable t;
    t.factors["*"] = {{"h2d", 3.5}, {"d2h", 3.5}};
    return t;
  }());
  engine->set_calibration(table);
  EXPECT_EQ(engine->calibration_hash(), table->content_hash());

  // The old entry is unreachable under the new key...
  EXPECT_FALSE(engine->try_cached(request).has_value());

  // ...and the re-plan warm-starts from it instead of searching cold,
  // pricing with the calibrated device.
  const auto repaired = engine->plan(request);
  ASSERT_TRUE(repaired.has_value()) << repaired.error().describe();
  EXPECT_TRUE(repaired.value().search_stats.warm_started);
  EXPECT_DOUBLE_EQ(repaired.value().device.scale.h2d, 3.5);

  // Re-cached under the calibrated key.
  const auto warm = engine->try_cached(request);
  ASSERT_TRUE(warm.has_value());
  ASSERT_TRUE(warm->has_value());
  EXPECT_EQ(warm->value().to_json(), repaired.value().to_json());

  // Clearing restores the analytic keying; the original entry is still
  // there and serves again.
  engine->set_calibration(nullptr);
  EXPECT_EQ(engine->calibration_hash(), "");
  const auto analytic_again = engine->try_cached(request);
  ASSERT_TRUE(analytic_again.has_value());
  ASSERT_TRUE(analytic_again->has_value());
  EXPECT_EQ(analytic_again->value().to_json(), cold.value().to_json());
}

TEST(EngineCalibration, KeyForTracksTheActiveTable) {
  auto engine = api::Engine::create({});
  api::PlanRequest request;
  request.model = graph::make_resnet50(64);
  request.device = sim::v100_abci();
  const auto analytic = engine->key_for(request);
  EXPECT_EQ(analytic, cache::request_key(request));

  auto table = std::make_shared<const CalibrationTable>([] {
    CalibrationTable t;
    t.factors["*"] = {{"compute", 1.2}};
    return t;
  }());
  engine->set_calibration(table);
  EXPECT_EQ(engine->key_for(request),
            cache::request_key(request, table->content_hash()));
  EXPECT_NE(engine->key_for(request), analytic);
}

}  // namespace
}  // namespace karma::calib
