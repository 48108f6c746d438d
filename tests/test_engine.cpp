// The discrete-event engine: stream FIFO semantics, dependency chains,
// capacity accounting, overlap, stalls, deadlock detection, determinism,
// and the makespan-only replay agreeing with the full one.
#include "src/sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/distributed.h"
#include "src/core/schedule_gen.h"
#include "src/graph/model_zoo.h"
#include "src/util/infeasible.h"
#include "src/util/rng.h"

namespace karma::sim {
namespace {

/// Device where every derived duration is a round number:
/// 1 B transfers in 1 s per 1 B/s on both DMA directions, no latency.
DeviceSpec unit_device() {
  DeviceSpec d;
  d.name = "unit";
  d.memory_capacity = 1000;
  d.peak_flops = 1.0;
  d.device_mem_bw = 1e18;  // never memory-bound
  d.h2d_bw = 1.0;          // 1 B/s
  d.d2h_bw = 1.0;
  d.swap_latency = 0.0;
  d.cpu_flops = 1.0;
  d.host_mem_bw = 1.0;
  return d;
}

Plan skeleton(int nb, Seconds fwd = 1.0, Seconds bwd = 2.0,
              Bytes act = 100) {
  Plan plan;
  plan.strategy = "engine-test";
  plan.capacity = 1000;
  for (int b = 0; b < nb; ++b) {
    plan.blocks.push_back({b, b + 1});
    BlockCost c;
    c.fwd_time = fwd;
    c.bwd_time = bwd;
    c.act_bytes = act;
    c.boundary_bytes = act / 10;
    plan.costs.push_back(c);
  }
  return plan;
}

Op op(OpKind kind, int block) {
  Op o;
  o.kind = kind;
  o.block = block;
  return o;
}

TEST(Engine, SerialComputeTiming) {
  Plan plan = skeleton(3);
  plan.ops = {op(OpKind::kForward, 0),  op(OpKind::kForward, 1),
              op(OpKind::kForward, 2),  op(OpKind::kBackward, 2),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  const Engine engine(unit_device());
  const ExecutionTrace trace = engine.run(plan);
  // 3 forwards (1 s) + 3 backwards (2 s) strictly serial on one stream.
  EXPECT_DOUBLE_EQ(trace.makespan, 9.0);
  EXPECT_DOUBLE_EQ(trace.compute_busy, 9.0);
  EXPECT_DOUBLE_EQ(trace.occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(trace.compute_stall(), 0.0);
}

TEST(Engine, SwapOutOverlapsCompute) {
  // Fig. 2's premise: the D2H copy of block 0 runs during F1's compute.
  Plan plan = skeleton(2, /*fwd=*/1.0, /*bwd=*/2.0, /*act=*/100);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1)};
  // Swap of 100 B at 1 B/s = 100 s, forwards 1 s each.
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& f1 = trace.records[2];
  const OpRecord& sout = trace.records[1];
  EXPECT_DOUBLE_EQ(f1.start, 1.0);   // not blocked by the swap
  EXPECT_DOUBLE_EQ(sout.start, 1.0); // starts when F0 completes
  EXPECT_DOUBLE_EQ(trace.makespan, 101.0);
}

TEST(Engine, BackwardWaitsForSwapIn) {
  // The vDNN-style stall: B0 cannot start before Sin0 lands.
  Plan plan = skeleton(2, 1.0, 2.0, 50);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), op(OpKind::kBackward, 1),
              op(OpKind::kSwapIn, 0),  op(OpKind::kBackward, 0)};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& sin = trace.records[4];
  const OpRecord& b0 = trace.records[5];
  // Sin0 depends on Sout0 (same-block chain): starts at 51.
  EXPECT_DOUBLE_EQ(sin.start, 51.0);
  EXPECT_DOUBLE_EQ(sin.end, 101.0);
  EXPECT_DOUBLE_EQ(b0.start, 101.0);
  EXPECT_GT(b0.stall, 0.0);
  EXPECT_LT(trace.occupancy(), 1.0);
}

TEST(Engine, CapacityBlocksSwapIn) {
  // Three blocks of 400 B in a 1200 B device: block 2 is evicted right
  // after its forward, and its swap-in cannot start until the eviction
  // has freed space. Backwards use the schedule builder's convention
  // (alloc 0, free the consumed activations).
  Plan plan = skeleton(3, 1.0, 1.0, 400);
  plan.capacity = 1200;
  Op b2 = op(OpKind::kBackward, 2), b1 = op(OpKind::kBackward, 1),
     b0 = op(OpKind::kBackward, 0);
  b2.alloc = b1.alloc = b0.alloc = 0;
  b2.free = b1.free = b0.free = 400;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1),
              op(OpKind::kForward, 2), op(OpKind::kSwapOut, 2),
              op(OpKind::kSwapIn, 2),  b2, b1, b0};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& sin2 = trace.records[4];
  const OpRecord& sout2 = trace.records[3];
  // After F0..F2 (1200 used), Sout2 frees 400 at its end; Sin2 needs 400
  // free, so it can only start once Sout2 completed.
  EXPECT_GE(sin2.start, sout2.end);
  EXPECT_LE(trace.peak_resident, 1200);
}

TEST(Engine, DeadlockDetected) {
  // A single block bigger than capacity can never run.
  Plan plan = skeleton(1, 1.0, 1.0, 2000);
  plan.capacity = 100;
  plan.ops = {op(OpKind::kForward, 0)};
  EXPECT_THROW(Engine(unit_device()).run(plan), std::runtime_error);
}

TEST(Engine, DeadlockMessageNamesBlockedOp) {
  Plan plan = skeleton(1, 1.0, 1.0, 2000);
  plan.capacity = 100;
  plan.ops = {op(OpKind::kForward, 0)};
  try {
    Engine(unit_device()).run(plan);
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("F1"), std::string::npos);
  }
}

TEST(Engine, AfterOpDelaysStart) {
  Plan plan = skeleton(2, 1.0, 1.0, 10);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), op(OpKind::kBackward, 1),
              op(OpKind::kSwapIn, 0),  op(OpKind::kBackward, 0)};
  plan.ops[4].after_op = 3;
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& gated = trace.records[4];
  const OpRecord& b1 = trace.records[3];
  EXPECT_GE(gated.start, b1.end);
}

TEST(Engine, H2DStreamIsFifo) {
  Plan plan = skeleton(3, 1.0, 1.0, 10);
  plan.ops = {op(OpKind::kForward, 0),  op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1),  op(OpKind::kSwapOut, 1),
              op(OpKind::kForward, 2),  op(OpKind::kBackward, 2),
              op(OpKind::kSwapIn, 1),   op(OpKind::kSwapIn, 0),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& sin1 = trace.records[6];
  const OpRecord& sin0 = trace.records[7];
  EXPECT_GE(sin0.start, sin1.end);  // FIFO: issue order is service order
}

TEST(Engine, ExplicitDurationOverrides) {
  Plan plan = skeleton(1, 1.0, 1.0, 10);
  Op ar = op(OpKind::kAllReduce, 0);
  ar.duration = 7.5;
  Op up = op(OpKind::kCpuUpdate, 0);
  up.duration = 2.5;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kBackward, 0), ar, up};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  EXPECT_DOUBLE_EQ(trace.records[2].duration(), 7.5);
  EXPECT_DOUBLE_EQ(trace.records[3].duration(), 2.5);
  // AR and U run on their own streams after the backward (block chain).
  EXPECT_GE(trace.records[2].start, trace.records[1].end);
  EXPECT_GE(trace.records[3].start, trace.records[2].end);
  EXPECT_DOUBLE_EQ(trace.makespan, 1.0 + 1.0 + 7.5 + 2.5);
}

TEST(Engine, ZeroDurationOpsAllRetire) {
  // An op that takes no time ends at the instant it starts. Its stream's
  // next op must still wait for it to retire: starting it at once would
  // drop the first op from the in-flight set, so it never retired and its
  // dependents read as a deadlock.
  Plan plan = skeleton(2);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  for (Op& o : plan.ops) o.duration = 0.0;
  const Engine engine(unit_device());
  const ExecutionTrace trace = engine.run(plan);
  EXPECT_EQ(trace.makespan, 0.0);
  ASSERT_EQ(trace.records.size(), plan.ops.size());
  for (const OpRecord& r : trace.records) EXPECT_EQ(r.end, 0.0);
  ReplayScratch scratch;
  EXPECT_EQ(engine.makespan(plan, scratch), 0.0);
}

TEST(Engine, RecomputeDependsOnPredecessorBlock) {
  // R1 must wait for Sin0 (its input is block 0's boundary), even though
  // the compute stream would otherwise be free.
  Plan plan = skeleton(2, 1.0, 1.0, 50);
  Op f1 = op(OpKind::kForward, 1);
  f1.retains = false;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0), f1,
              op(OpKind::kSwapIn, 0),  op(OpKind::kRecompute, 1),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const OpRecord& sin0 = trace.records[3];
  const OpRecord& r1 = trace.records[4];
  EXPECT_GE(r1.start, sin0.end);
}

TEST(Engine, MemoryConservation) {
  // After a full iteration, the pool should return to empty:
  // peak_resident is bounded and every alloc has a matching free.
  Plan plan = skeleton(2, 1.0, 1.0, 100);
  Op b1 = op(OpKind::kBackward, 1);
  b1.alloc = 0;
  b1.free = 100;
  Op b0 = op(OpKind::kBackward, 0);
  b0.alloc = 0;
  b0.free = 100;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kForward, 1), b1, b0};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  EXPECT_EQ(trace.peak_resident, 200);
}

TEST(Engine, Determinism) {
  Plan plan = skeleton(4, 1.3, 2.7, 123);
  plan.ops = {op(OpKind::kForward, 0),  op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1),  op(OpKind::kSwapOut, 1),
              op(OpKind::kForward, 2),  op(OpKind::kForward, 3),
              op(OpKind::kBackward, 3), op(OpKind::kSwapIn, 1),
              op(OpKind::kSwapIn, 0),   op(OpKind::kBackward, 2),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  const Engine engine(unit_device());
  const ExecutionTrace a = engine.run(plan);
  const ExecutionTrace b = engine.run(plan);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.records[i].start, b.records[i].start);
    EXPECT_DOUBLE_EQ(a.records[i].end, b.records[i].end);
  }
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

TEST(Engine, BackwardProfileChargesRecompute) {
  Plan plan = skeleton(2, 1.0, 2.0, 10);
  Op f1 = op(OpKind::kForward, 1);
  f1.retains = false;
  plan.ops = {op(OpKind::kForward, 0), f1, op(OpKind::kRecompute, 1),
              op(OpKind::kBackward, 1), op(OpKind::kBackward, 0)};
  const ExecutionTrace trace = Engine(unit_device()).run(plan);
  const auto profile = trace.backward_profile(2);
  // Block 1: recompute (1 s) + backward (2 s); block 0: backward only.
  EXPECT_GE(profile[1], 3.0);
  EXPECT_GE(profile[0], 2.0);
  EXPECT_LT(profile[0], profile[1]);
}

TEST(Engine, SwapInThatCanNeverFitThrowsStateDump) {
  // Documented contract (engine.h): a swap-in that can never fit must
  // throw std::runtime_error carrying a state dump. Block 1 stays resident
  // (800 of 1000 B) so block 0's 500 B swap-in can never be satisfied.
  Plan plan = skeleton(2, 1.0, 1.0, 500);
  plan.costs[1].act_bytes = 800;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), op(OpKind::kSwapIn, 0)};
  try {
    Engine(unit_device()).run(plan);
    FAIL() << "expected deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("engine-test"), std::string::npos);  // strategy
    EXPECT_NE(what.find("free="), std::string::npos);        // memory state
    EXPECT_NE(what.find("Sin1"), std::string::npos);         // blocked head
  }
}

/// unit_device() extended with round-number host and NVMe tiers.
DeviceSpec tiered_unit_device(Bytes host_cap, Bytes nvme_cap) {
  DeviceSpec d = unit_device();
  d.host_capacity = host_cap;
  d.nvme_capacity = nvme_cap;
  d.nvme_read_bw = 1.0;   // 1 B/s, like the DMA engines
  d.nvme_write_bw = 1.0;
  d.nvme_latency = 0.0;
  return d;
}

Op tier_op(OpKind kind, int block, tier::Tier t) {
  Op o = op(kind, block);
  o.tier = t;
  return o;
}

TEST(Engine, NvmeSwapsRunOnNvmeStreams) {
  // A host swap-out and an NVMe swap-out of different blocks overlap: they
  // occupy different streams (D2H vs NVMe-write).
  const DeviceSpec d = tiered_unit_device(1000, 1000);
  Plan plan = skeleton(2, 1.0, 1.0, 100);
  plan.hierarchy = hierarchy_of(d);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1),
              tier_op(OpKind::kSwapOut, 1, tier::Tier::kNvme)};
  const ExecutionTrace trace = Engine(d).run(plan);
  const OpRecord& host_out = trace.records[1];
  const OpRecord& nvme_out = trace.records[3];
  // Both 100 s transfers in flight together from t=2.
  EXPECT_DOUBLE_EQ(host_out.start, 1.0);
  EXPECT_DOUBLE_EQ(nvme_out.start, 2.0);
  EXPECT_LT(nvme_out.start, host_out.end);
  EXPECT_DOUBLE_EQ(trace.makespan, 102.0);
  EXPECT_EQ(trace.peak_host_resident, 100);
  EXPECT_EQ(trace.peak_nvme_resident, 100);
}

TEST(Engine, NvmeTierFullDeadlocksWithLedgerDump) {
  // The NVMe tier holds 150 B; two 100 B evictions target it. The second
  // swap-out can never start: tier-aware deadlock, ledger in the dump.
  const DeviceSpec d = tiered_unit_device(0, 150);
  Plan plan = skeleton(2, 1.0, 1.0, 100);
  plan.hierarchy = hierarchy_of(d);
  plan.ops = {op(OpKind::kForward, 0),
              tier_op(OpKind::kSwapOut, 0, tier::Tier::kNvme),
              op(OpKind::kForward, 1),
              tier_op(OpKind::kSwapOut, 1, tier::Tier::kNvme)};
  try {
    Engine(d).run(plan);
    FAIL() << "expected tier deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock"), std::string::npos);
    EXPECT_NE(what.find("on nvme"), std::string::npos);  // blocked eviction
    EXPECT_NE(what.find("ledger"), std::string::npos);   // per-tier state
  }
}

TEST(Engine, HostTierFullDeadlocksWithLedgerDump) {
  // Bounded host DRAM of 150 B, two 100 B host evictions.
  const DeviceSpec d = tiered_unit_device(150, 0);
  Plan plan = skeleton(2, 1.0, 1.0, 100);
  plan.hierarchy = hierarchy_of(d);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), op(OpKind::kSwapOut, 1)};
  try {
    Engine(d).run(plan);
    FAIL() << "expected tier deadlock";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("on host"), std::string::npos);
    EXPECT_NE(what.find("ledger"), std::string::npos);
  }
}

TEST(Engine, SwapInReleasesTierBytes) {
  // Host tier of exactly one payload: the eviction fills DRAM, the
  // prefetch-back empties it, and the run completes — the swap-in must
  // return the bytes to the host ledger for the exact fit to be live.
  const DeviceSpec d = tiered_unit_device(100, 0);
  Plan plan = skeleton(2, 1.0, 1.0, 100);
  plan.hierarchy = hierarchy_of(d);
  Op b1 = op(OpKind::kBackward, 1), b0 = op(OpKind::kBackward, 0);
  b1.alloc = b0.alloc = 0;
  b1.free = b0.free = 100;
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              op(OpKind::kForward, 1), b1,
              op(OpKind::kSwapIn, 0),  b0};
  const ExecutionTrace trace = Engine(d).run(plan);
  EXPECT_EQ(trace.peak_host_resident, 100);
  EXPECT_EQ(trace.peak_nvme_resident, 0);
}

TEST(Engine, ValidateRejectsTierMismatch) {
  // Evicted to host, fetched from NVMe: the plan is structurally wrong.
  const DeviceSpec d = tiered_unit_device(1000, 1000);
  Plan plan = skeleton(1, 1.0, 1.0, 100);
  plan.hierarchy = hierarchy_of(d);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0),
              tier_op(OpKind::kSwapIn, 0, tier::Tier::kNvme),
              op(OpKind::kBackward, 0)};
  EXPECT_THROW(Engine(d).run(plan), std::logic_error);
}

TEST(Engine, ValidateRejectsNvmeSwapWithoutNvmeTier) {
  Plan plan = skeleton(1, 1.0, 1.0, 100);  // no hierarchy attached
  plan.ops = {op(OpKind::kForward, 0),
              tier_op(OpKind::kSwapOut, 0, tier::Tier::kNvme),
              tier_op(OpKind::kSwapIn, 0, tier::Tier::kNvme),
              op(OpKind::kBackward, 0)};
  EXPECT_THROW(Engine(unit_device()).run(plan), std::logic_error);
}

TEST(Engine, RejectsMissingDurations) {
  Plan plan = skeleton(1);
  Op ar = op(OpKind::kAllReduce, 0);
  plan.ops = {op(OpKind::kForward, 0), op(OpKind::kBackward, 0), ar};
  EXPECT_THROW(Engine(unit_device()).run(plan), std::logic_error);
}

/// A replay's makespan, or which error it threw.
struct Outcome {
  enum Error { kNone, kInfeasible, kInvalid };
  Seconds makespan = 0.0;
  Error error = kNone;
};

template <typename Replay>
Outcome outcome_of(const Replay& replay) {
  try {
    return {replay(), Outcome::kNone};
  } catch (const InfeasibleError&) {
    return {0.0, Outcome::kInfeasible};
  } catch (const std::logic_error&) {
    return {0.0, Outcome::kInvalid};
  }
}

/// Random blocking of `model` into 1..`max_blocks` contiguous blocks.
std::vector<Block> random_blocking(const graph::Model& model, Rng& rng,
                                   int max_blocks) {
  const int n = static_cast<int>(model.num_layers());
  const int k = 1 + static_cast<int>(rng.next_below(
                        static_cast<std::uint64_t>(std::min(max_blocks, n))));
  std::vector<bool> cut(static_cast<std::size_t>(n), false);
  for (int c = 1; c < k; ++c)
    cut[1 + rng.next_below(static_cast<std::uint64_t>(n - 1))] = true;
  std::vector<Block> blocks;
  int first = 0;
  for (int p = 1; p <= n; ++p)
    if (p == n || cut[static_cast<std::size_t>(p)]) {
      blocks.push_back({first, p});
      first = p;
    }
  return blocks;
}

TEST(Engine, MakespanMatchesFullReplayBitForBit) {
  DeviceSpec bounded = v100_abci_nvme();
  bounded.name = "v100-bounded-host";
  bounded.host_capacity = 4_GiB;
  const std::vector<DeviceSpec> devices = {v100_abci(), v100_abci_nvme(),
                                           bounded};
  const std::vector<graph::Model> zoo = {
      graph::make_resnet50(512),
      graph::make_resnet200(128),
      graph::make_vgg16(256),
      graph::make_wrn28_10(512),
      graph::make_resnet1001(128),
      graph::make_unet(16),
      graph::make_highres_segmenter(1, 4096),
      graph::make_lstm_seq2seq(256, 128, 1024, 2),
      graph::make_transformer(graph::megatron_config(0), 8),
      graph::make_transformer_chain(graph::megatron_config(0), 8),
  };
  Rng rng(0x5c0e);
  // One scratch for every replay below: plans of every size pass through
  // it, some of them throwing mid-replay, so stale state would show as a
  // lean result that differs from a fresh scratch's.
  ReplayScratch shared;
  int compared = 0;
  int infeasible = 0;
  const auto check = [&](const Engine& engine, const Plan& plan,
                         const std::string& where) {
    const Outcome full = outcome_of([&] { return engine.run(plan).makespan; });
    const Outcome lean =
        outcome_of([&] { return engine.makespan(plan, shared); });
    const Outcome fresh = outcome_of([&] {
      ReplayScratch scratch;
      return engine.makespan(plan, scratch);
    });
    EXPECT_EQ(lean.error, full.error) << where;
    EXPECT_EQ(fresh.error, full.error) << where;
    EXPECT_EQ(std::memcmp(&lean.makespan, &full.makespan, sizeof(Seconds)), 0)
        << where << ": " << lean.makespan << " vs " << full.makespan;
    EXPECT_EQ(std::memcmp(&fresh.makespan, &full.makespan, sizeof(Seconds)),
              0)
        << where << ": " << fresh.makespan << " vs " << full.makespan;
    if (full.error == Outcome::kNone) ++compared;
    if (full.error == Outcome::kInfeasible) ++infeasible;
  };

  // A plan that deadlocks throws on both paths. This one stops with an
  // activation spill and a gradient payload of block 0 still on the host
  // ledger; the next plan's custom-payload swap-in and update of block 0
  // would release them from a stale scratch (a ledger underflow).
  const Engine unit(unit_device());
  Plan dead = skeleton(2);
  Op grad_out = op(OpKind::kSwapOut, 0);
  grad_out.residency = tier::Residency::kGradient;
  grad_out.bytes = 50;
  Op too_big = op(OpKind::kForward, 1);
  too_big.alloc = 5000;
  dead.ops = {op(OpKind::kForward, 0), op(OpKind::kSwapOut, 0), grad_out,
              too_big};
  EXPECT_THROW(unit.run(dead), InfeasibleError);
  EXPECT_THROW(unit.makespan(dead, shared), InfeasibleError);
  Plan after = skeleton(1);
  Op in = op(OpKind::kSwapIn, 0);
  in.bytes = 100;
  Op update = op(OpKind::kCpuUpdate, 0);
  update.duration = 1.0;
  after.ops = {op(OpKind::kForward, 0), in, op(OpKind::kBackward, 0), update};
  check(unit, after, "custom swap-in after a deadlock");

  for (const auto& model : zoo) {
    const int n = static_cast<int>(model.num_layers());
    for (const auto& device : devices) {
      const Engine engine(device);
      const LayerCostTable table(model, device);
      const std::vector<std::vector<Block>> blockings = {
          uniform_blocks(model, std::max(1, n / 6)),
          uniform_blocks(model, std::max(1, n / 24)),
          random_blocking(model, rng, 40), random_blocking(model, rng, 40),
          random_blocking(model, rng, 40)};
      for (const auto& blocks : blockings) {
        const std::vector<BlockCost> costs = table.costs(blocks);
        std::vector<int> reach;
        Bytes weights = 0;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
          reach.push_back(table.reach(blocks[b]));
          weights += costs[b].param_bytes + costs[b].grad_bytes;
        }
        std::vector<std::vector<core::BlockPolicy>> policy_sets = {
            core::remat_policies(blocks.size())};
        try {
          std::vector<core::BlockPolicy> routed;
          core::route_policies(device, blocks, costs, reach,
                               device.memory_capacity - weights, 0,
                               /*enable_recompute=*/true, routed);
          policy_sets.push_back(routed);
        } catch (const InfeasibleError&) {
        }
        std::vector<core::BlockPolicy> random(blocks.size());
        for (auto& p : random)
          p = static_cast<core::BlockPolicy>(rng.next_below(4));
        policy_sets.push_back(random);
        for (const auto& policies : policy_sets) {
          Plan plan;
          try {
            plan = core::build_training_plan(model, device, blocks, policies,
                                             "replay-check", {}, &costs);
          } catch (const InfeasibleError&) {
            continue;  // admission refused it before any replay
          }
          check(engine, plan,
                model.name() + " on " + device.name + ", " +
                    std::to_string(blocks.size()) + " blocks");
        }
      }
    }
  }

  // Data-parallel plans: gradient swap-outs and CPU updates drive the
  // gradient ledger, and weight shards pin the host.
  for (const auto& device : devices) {
    core::DistributedOptions options;
    options.planner.anneal_iterations = 0;
    for (const auto& model :
         {graph::make_resnet50(256),
          graph::make_transformer(graph::megatron_config(0), 4)}) {
      const core::PlanResult dp =
          core::plan_data_parallel(model, device, options);
      check(Engine(device), dp.schedule,
            model.name() + " data-parallel on " + device.name);
    }
  }
  EXPECT_GT(compared, 250);
  EXPECT_GT(infeasible, 50);
}

}  // namespace
}  // namespace karma::sim
