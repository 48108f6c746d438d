// Cross-cutting property sweeps (parameterized): every (model, batch)
// cell of the Fig. 5 grid must plan feasibly, respect device capacity,
// and behave deterministically; numeric OOC equivalence must hold for
// every block size and policy; and the per-tier ledger must conserve
// bytes class-by-class over randomized distributed schedules
// (DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/baselines/strategies.h"
#include "src/core/planner.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/sim/trace_check.h"
#include "src/tier/accountant.h"
#include "src/train/data_parallel.h"
#include "src/train/synthetic.h"
#include "src/util/rng.h"

namespace karma {
namespace {

// ---------------- Planner sweep over the Fig. 5 grid ----------------

struct GridCase {
  const char* model;
  std::int64_t batch;
};

graph::Model build(const char* name, std::int64_t batch) {
  const std::string m = name;
  if (m == "ResNet-50") return graph::make_resnet50(batch);
  if (m == "VGG16") return graph::make_vgg16(batch);
  if (m == "ResNet-200") return graph::make_resnet200(batch);
  if (m == "WRN-28-10") return graph::make_wrn28_10(batch);
  if (m == "U-Net") return graph::make_unet(batch);
  throw std::invalid_argument("unknown model");
}

class PlannerGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(PlannerGrid, PlansFeasiblyWithinCapacity) {
  const GridCase& p = GetParam();
  const graph::Model model = build(p.model, p.batch);
  core::PlannerOptions options;
  options.anneal_iterations = 0;  // keep the sweep fast
  const core::KarmaPlanner planner(model, sim::v100_abci(), options);
  const core::PlanResult result = planner.plan();
  EXPECT_GT(result.iteration_time, 0.0);
  EXPECT_LE(result.trace.peak_resident, sim::v100_abci().memory_capacity)
      << p.model << " b=" << p.batch;
  EXPECT_GT(result.occupancy, 0.2);
  EXPECT_LE(result.occupancy, 1.0 + 1e-9);
  // Plans validate structurally.
  EXPECT_NO_THROW(sim::validate_plan(result.schedule));
}

INSTANTIATE_TEST_SUITE_P(
    Fig5Grid, PlannerGrid,
    ::testing::Values(GridCase{"ResNet-50", 128}, GridCase{"ResNet-50", 256},
                      GridCase{"ResNet-50", 512}, GridCase{"ResNet-50", 768},
                      GridCase{"VGG16", 32}, GridCase{"VGG16", 96},
                      GridCase{"VGG16", 160}, GridCase{"ResNet-200", 4},
                      GridCase{"ResNet-200", 12}, GridCase{"ResNet-200", 24},
                      GridCase{"WRN-28-10", 256}, GridCase{"WRN-28-10", 768},
                      GridCase{"U-Net", 8}, GridCase{"U-Net", 24}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      std::string n = std::string(info.param.model) + "_b" +
                      std::to_string(info.param.batch);
      for (auto& c : n)
        if (c == '-') c = '_';
      return n;
    });

// -------------- Throughput monotonicity along batch axes --------------

class ThroughputShape
    : public ::testing::TestWithParam<std::pair<std::int64_t, std::int64_t>> {
};

TEST_P(ThroughputShape, PerSampleTimeDoesNotImproveBeyondMemory) {
  // Past the capacity cliff, growing the batch cannot make per-sample
  // time better than the in-core regime by more than noise.
  const auto [small, large] = GetParam();
  core::PlannerOptions options;
  options.anneal_iterations = 0;
  const auto rs = core::KarmaPlanner(graph::make_resnet50(small),
                                     sim::v100_abci(), options)
                      .plan();
  const auto rl = core::KarmaPlanner(graph::make_resnet50(large),
                                     sim::v100_abci(), options)
                      .plan();
  const double per_sample_small = rs.iteration_time / static_cast<double>(small);
  const double per_sample_large = rl.iteration_time / static_cast<double>(large);
  EXPECT_GE(per_sample_large, per_sample_small * 0.9);
}

INSTANTIATE_TEST_SUITE_P(Pairs, ThroughputShape,
                         ::testing::Values(std::make_pair(128, 384),
                                           std::make_pair(128, 640),
                                           std::make_pair(256, 768)));

// --------------- Strategy sweep: plans stay within memory ---------------

class StrategySweep : public ::testing::TestWithParam<int> {};

TEST_P(StrategySweep, EveryStrategyRespectsCapacityOnWrn) {
  const auto& entry =
      baselines::all_strategies()[static_cast<std::size_t>(GetParam())];
  const graph::Model model = graph::make_wrn28_10(768);
  const auto result = entry.plan(model, sim::v100_abci());
  if (!result) GTEST_SKIP() << entry.name << " infeasible here";
  EXPECT_LE(result->trace.peak_resident, sim::v100_abci().memory_capacity)
      << entry.name;
  EXPECT_GT(result->occupancy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(All, StrategySweep, ::testing::Range(0, 9));

// ------------- Numeric OOC equivalence across block sizes -------------

class OocBlockSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OocBlockSizes, SwapAndRecomputeExactForEveryPartition) {
  using namespace train;
  const std::size_t per_block = GetParam();
  Rng mrng(404);
  Sequential ref = make_mlp({12, 20, 20, 20, 20, 3}, mrng);
  Rng data_rng(11);
  const SyntheticBatch data = make_synthetic_batch(8, {12}, 3, data_rng);

  ref.zero_grads();
  SoftmaxCrossEntropy loss;
  loss.forward(ref.forward(data.inputs), data.labels);
  ref.backward(loss.grad_logits());

  for (const auto policy :
       {core::BlockPolicy::kSwap, core::BlockPolicy::kRecompute}) {
    Rng rng2(404);
    Sequential net = make_mlp({12, 20, 20, 20, 20, 3}, rng2);
    OocExecutor exec(&net,
                     uniform_ooc_blocks(net.size(), per_block, policy),
                     Bytes{1} << 30);
    exec.compute_gradients(data.inputs, data.labels);
    const auto a = ref.all_grads();
    const auto b = net.all_grads();
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_TRUE(bitwise_equal(*a[i], *b[i]))
          << "policy " << static_cast<int>(policy) << " per_block "
          << per_block << " grad " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, OocBlockSizes,
                         ::testing::Values(1, 2, 3, 4, 9));

// ------------------ DP rank-count equivalence sweep ------------------

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, ReplicasInSyncForAnyRankCount) {
  using namespace train;
  const int ranks = GetParam();
  DataParallelConfig c;
  c.ranks = ranks;
  c.lr = 0.05f;
  DataParallelTrainer trainer(
      [](Rng& rng) { return make_mlp({10, 12, 2}, rng); }, 99, c);
  Rng data_rng(3);
  const SyntheticBatch data = make_synthetic_batch(
      static_cast<std::size_t>(ranks) * 4, {10}, 2, data_rng);
  for (int step = 0; step < 3; ++step) trainer.step(data.inputs, data.labels);
  EXPECT_TRUE(trainer.replicas_in_sync());
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep, ::testing::Values(1, 2, 3, 4, 6, 8));

// ------------- Per-tier ledger conservation (DESIGN.md §9) -------------
//
// The bounded multi-iteration host ledger rests on three invariants,
// proved here over randomized inputs rather than hand-picked cases:
//   1. every alloc has a matching free (per residency class, per
//      iteration: activation swap-out <-> swap-in, gradient-out <->
//      update);
//   2. occupancy never exceeds a bounded tier's capacity at any event;
//   3. occupancy returns to the baseline (pinned shards + nothing else)
//      after each iteration and at the end of the trace.

TEST(LedgerConservation, RandomizedAccountantTrafficBalances) {
  // Pure-accountant property: a random charge/release stream (releases
  // never exceeding outstanding) keeps used() equal to the reference sum
  // per class, never overflows, and peaks monotonically.
  Rng rng(0xbead);
  for (int trial = 0; trial < 50; ++trial) {
    tier::TierAccountant ledger(tier::test_hierarchy());
    Bytes outstanding[tier::kNumTiers][tier::kNumResidencyClasses] = {};
    Bytes peak_seen[tier::kNumTiers] = {};
    for (int step = 0; step < 200; ++step) {
      const auto t = static_cast<tier::Tier>(1 + rng.next_below(2));  // host/nvme
      const auto r =
          static_cast<tier::Residency>(rng.next_below(tier::kNumResidencyClasses));
      const auto ti = static_cast<int>(t);
      const auto ri = static_cast<int>(r);
      if (rng.next_below(2) == 0) {
        const Bytes amount = static_cast<Bytes>(rng.next_below(64));
        if (!ledger.fits(t, amount)) {
          EXPECT_THROW(ledger.charge(t, r, amount), std::runtime_error);
          continue;
        }
        ledger.charge(t, r, amount);
        outstanding[ti][ri] += amount;
      } else if (outstanding[ti][ri] > 0) {
        const Bytes amount =
            static_cast<Bytes>(rng.next_below(
                static_cast<std::uint64_t>(outstanding[ti][ri]) + 1));
        ledger.release(t, r, amount);
        outstanding[ti][ri] -= amount;
      } else {
        // Nothing outstanding in this class: any release is mispairing.
        EXPECT_THROW(ledger.release(t, r, 1), std::logic_error);
        continue;
      }
      Bytes total = 0;
      for (int c = 0; c < tier::kNumResidencyClasses; ++c) {
        EXPECT_EQ(ledger.used(t, static_cast<tier::Residency>(c)),
                  outstanding[ti][c]);
        total += outstanding[ti][c];
      }
      EXPECT_EQ(ledger.used(t), total);
      EXPECT_LE(total,
                ledger.spec(t).capacity);
      peak_seen[ti] = std::max(peak_seen[ti], total);
      EXPECT_EQ(ledger.peak(t), peak_seen[ti]);
    }
  }
}

/// Replays a plan's trace through the same per-class lifetime rules the
/// engine uses and checks invariants 1-3 above. Independent of the
/// engine's internals: only plan ops + trace record times are consumed.
void check_ledger_conservation(const sim::Plan& plan,
                               const sim::ExecutionTrace& trace,
                               const std::string& label) {
  ASSERT_EQ(plan.ops.size(), trace.records.size()) << label;

  struct Event {
    Seconds time;
    int order;  // releases before charges at equal times
    int iteration;
    bool is_update;  // gradient consumer: tier resolved during replay
    tier::Tier t;
    tier::Residency r;
    int block;
    Bytes bytes;   // signed: + charge, - release (updates: + consume cap)
  };
  std::vector<Event> events;
  const auto payload_of = [&](const sim::Op& op) {
    return op.bytes != sim::Op::kDefault
               ? op.bytes
               : plan.costs[static_cast<std::size_t>(op.block)].act_bytes;
  };
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const sim::Op& op = plan.ops[i];
    const sim::OpRecord& rec = trace.records[i];
    if (op.residency == tier::Residency::kWeightShard) continue;
    if (op.kind == sim::OpKind::kSwapOut && payload_of(op) > 0) {
      events.push_back({rec.start, 1, op.iteration, false, op.tier,
                        op.residency, op.block, payload_of(op)});
    } else if (op.kind == sim::OpKind::kSwapIn && payload_of(op) > 0 &&
               op.residency == tier::Residency::kActivation) {
      events.push_back({rec.end, 0, op.iteration, false, op.tier,
                        op.residency, op.block, -payload_of(op)});
    } else if (op.kind == sim::OpKind::kCpuUpdate ||
               op.kind == sim::OpKind::kDeviceUpdate) {
      events.push_back({rec.end, 0, op.iteration, true, op.tier,
                        tier::Residency::kGradient, op.block,
                        op.bytes > 0 ? op.bytes : 0});
    }
  }

  // Invariant 1: per iteration and class, charges balance releases.
  std::map<std::pair<int, int>, Bytes> net_by_iter_class;
  for (const Event& e : events)
    net_by_iter_class[{e.iteration, static_cast<int>(e.r)}] +=
        e.is_update ? -e.bytes : e.bytes;
  for (const auto& [key, net] : net_by_iter_class)
    EXPECT_EQ(net, 0) << label << ": iteration " << key.first << " class "
                      << tier::residency_name(
                             static_cast<tier::Residency>(key.second))
                      << " leaks " << net << " B";

  // Invariants 2 + 3: replay chronologically against bounded capacities.
  // An update consumes its block's outstanding gradients from whichever
  // tier the gradient-out charged (not an assumed tier).
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.order < b.order;
  });
  Bytes used[tier::kNumTiers] = {};
  used[static_cast<int>(tier::Tier::kHost)] = plan.host_baseline_resident;
  std::map<std::pair<int, int>, Bytes> grads;  // (block, tier) -> in flight
  for (const Event& e : events) {
    if (e.is_update) {
      Bytes budget = e.bytes > 0 ? e.bytes : tier::TierSpec::kUnbounded;
      for (auto& [key, out] : grads) {
        if (key.first != e.block || out <= 0) continue;
        const Bytes consume = std::min(out, budget);
        out -= consume;
        used[key.second] -= consume;
        budget -= consume;
        if (budget <= 0) break;
      }
      continue;
    }
    used[static_cast<int>(e.t)] += e.bytes;
    if (e.bytes > 0 && e.r == tier::Residency::kGradient)
      grads[{e.block, static_cast<int>(e.t)}] += e.bytes;
    EXPECT_GE(used[static_cast<int>(e.t)],
              e.t == tier::Tier::kHost ? plan.host_baseline_resident : 0)
        << label << ": tier dips below baseline at t=" << e.time;
    if (plan.hierarchy && plan.hierarchy->has(e.t)) {
      const tier::TierSpec& spec = plan.hierarchy->spec(e.t);
      if (!spec.unbounded()) {
        EXPECT_LE(used[static_cast<int>(e.t)], spec.capacity)
            << label << ": tier '" << tier::tier_name(e.t)
            << "' overflows at t=" << e.time;
      }
    }
  }
  EXPECT_EQ(used[static_cast<int>(tier::Tier::kHost)],
            plan.host_baseline_resident)
      << label << ": host does not return to baseline";
  EXPECT_EQ(used[static_cast<int>(tier::Tier::kNvme)], 0)
      << label << ": NVMe does not return to baseline";
}

TEST(LedgerConservation, RandomizedDistributedSchedules) {
  // Randomized multi-iteration distributed pipelines, planned end to end
  // through the facade on both unbounded-host and bounded-host+NVMe
  // devices, must conserve the ledger class-by-class.
  Rng rng(0x5eed5);
  int admitted = 0;
  for (int trial = 0; trial < 12; ++trial) {
    api::PlanRequest request;
    const int config = static_cast<int>(rng.next_below(2));  // 1.2B / 2.5B-ish
    const std::int64_t batch = 2 + 2 * static_cast<std::int64_t>(rng.next_below(2));
    request.model = graph::make_transformer(graph::megatron_config(config), batch);
    request.device =
        rng.next_below(2) == 0 ? sim::v100_abci() : sim::v100_abci_nvme();
    core::DistributedOptions options;
    options.num_gpus = 8 << rng.next_below(4);  // 8..64
    options.iterations = 2 + static_cast<int>(rng.next_below(2));
    options.update = rng.next_below(4) == 0 ? core::UpdateSite::kDevice
                                            : core::UpdateSite::kCpu;
    options.weight_shard_fraction = rng.next_below(2) == 0 ? 1.0 : 0.25;
    request.planner.anneal_iterations = 0;
    request.distributed = options;
    request.probe_feasible_batch = false;

    const auto planned = api::Engine::create()->plan(request);
    if (!planned.has_value()) continue;  // infeasible draw: nothing to check
    ++admitted;
    const std::string label = "trial " + std::to_string(trial) + " (" +
                              planned->schedule.strategy + ", " +
                              request.device.name + ")";
    check_ledger_conservation(planned->schedule, planned->trace, label);
    // Cross-check with the independent trace checker.
    for (const auto& v :
         sim::check_trace_invariants(planned->schedule, planned->trace))
      ADD_FAILURE() << label << ": " << v;
  }
  // The sweep must actually exercise the ledger, not skip everything.
  EXPECT_GE(admitted, 6);
}

// ----------------- Engine determinism on planner output -----------------

TEST(Determinism, SameSeedSamePlanSameTrace) {
  const graph::Model model = graph::make_resnet200(12);
  core::PlannerOptions options;
  options.anneal_iterations = 25;
  options.seed = 7;
  const auto a =
      core::KarmaPlanner(model, sim::v100_abci(), options).plan();
  const auto b =
      core::KarmaPlanner(model, sim::v100_abci(), options).plan();
  ASSERT_EQ(a.schedule.ops.size(), b.schedule.ops.size());
  EXPECT_EQ(a.schedule.schedule_string(), b.schedule.schedule_string());
  EXPECT_DOUBLE_EQ(a.iteration_time, b.iteration_time);
}

}  // namespace
}  // namespace karma
