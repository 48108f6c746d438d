#include "src/core/distributed.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/util/infeasible.h"

namespace karma::core {
namespace {

using sim::Block;
using sim::BlockCost;
using sim::Op;
using sim::OpKind;
using sim::Plan;

struct EmitContext {
  const std::vector<Block>& blocks;
  const std::vector<BlockCost>& costs;
  const std::vector<BlockPolicy>& policies;
  const sim::DeviceSpec& device;
  const DistributedOptions& options;
  const net::ExchangePlan& exchange;
  bool weights_resident;
};

/// Scaled weight/gradient swap payload per block (ZeRO stacking shrinks
/// the per-rank shard).
Bytes param_sw(const EmitContext& ctx, int b) {
  return static_cast<Bytes>(std::llround(
      static_cast<double>(ctx.costs[static_cast<std::size_t>(b)].param_bytes) *
      ctx.options.weight_shard_fraction));
}
Bytes grad_sw(const EmitContext& ctx, int b) {
  return static_cast<Bytes>(std::llround(
      static_cast<double>(ctx.costs[static_cast<std::size_t>(b)].grad_bytes) *
      ctx.options.weight_shard_fraction));
}

/// Emits one training iteration of the 5-stage pipeline into `plan`.
void emit_iteration(Plan& plan, const EmitContext& ctx, int iteration) {
  const int nb = static_cast<int>(ctx.blocks.size());
  const auto policy = [&](int b) {
    return ctx.policies[static_cast<std::size_t>(b)];
  };
  int stage =
      plan.stage_of.empty() ? 0 : plan.stage_of.back() + 1;
  const auto push = [&](Op op, int op_stage) {
    op.iteration = iteration;
    plan.ops.push_back(op);
    plan.stage_of.push_back(op_stage);
    return static_cast<int>(plan.ops.size()) - 1;
  };

  // ---- Forward phase ----
  std::vector<int> forward_index(static_cast<std::size_t>(nb), -1);
  for (int b = 0; b < nb; ++b) {
    ++stage;
    if (!ctx.weights_resident) {
      // Stream this block's weight shard in from the pinned host master
      // copy, bounded to two blocks of lookahead so parameters never pile
      // up on the device. Weight-shard reads leave the host ledger alone.
      Op win;
      win.kind = OpKind::kSwapIn;
      win.block = b;
      win.residency = tier::Residency::kWeightShard;
      win.bytes = param_sw(ctx, b);
      win.alloc = win.bytes;
      if (b >= 2) win.after_op = forward_index[static_cast<std::size_t>(b - 2)];
      push(win, stage);
    } else if (iteration > 0) {
      // Refresh the resident weights with the CPU-updated values (in
      // place; dep chain gates this on the block's CpuUpdate).
      Op win;
      win.kind = OpKind::kSwapIn;
      win.block = b;
      win.residency = tier::Residency::kWeightShard;
      win.bytes = param_sw(ctx, b);
      win.alloc = 0;
      push(win, stage);
    }
    Op fwd;
    fwd.kind = OpKind::kForward;
    fwd.block = b;
    fwd.retains = policy(b) != BlockPolicy::kRecompute;
    forward_index[static_cast<std::size_t>(b)] = push(fwd, stage);
    if (is_swap_policy(policy(b))) {
      Op out;
      out.kind = OpKind::kSwapOut;
      out.block = b;
      out.tier = swap_tier_of(policy(b));
      push(out, stage);
    }
    if (!ctx.weights_resident) {
      // Drop the (unmodified) weights: the host copy is authoritative, so
      // eviction is free — no PCIe traffic and no host ledger charge.
      Op drop;
      drop.kind = OpKind::kSwapOut;
      drop.block = b;
      drop.residency = tier::Residency::kWeightShard;
      drop.bytes = 0;
      drop.free = param_sw(ctx, b);
      drop.duration = 0.0;
      push(drop, stage);
    }
  }
  const int last_forward = forward_index[static_cast<std::size_t>(nb - 1)];

  // ---- Backward phase with prefetch windows ----
  std::vector<int> swapped;  // act-swap blocks (host and NVMe), descending
  for (int b = nb - 1; b >= 0; --b)
    if (is_swap_policy(policy(b))) swapped.push_back(b);
  std::size_t next_swap = 0;
  int last_backward = -1;

  const auto issue_act_swap_ins = [&](int gate, int count) {
    for (int k = 0; k < count && next_swap < swapped.size(); ++k) {
      Op in;
      in.kind = OpKind::kSwapIn;
      in.block = swapped[next_swap];
      in.tier = swap_tier_of(ctx.policies[static_cast<std::size_t>(
          swapped[next_swap])]);
      in.after_op = gate;
      push(in, stage);
      ++next_swap;
    }
  };
  issue_act_swap_ins(last_forward, ctx.options.planner.schedule.prefetch_window);

  // Exchange phases indexed by launch block.
  std::vector<const net::ExchangePhase*> phase_at(
      static_cast<std::size_t>(nb), nullptr);
  for (const auto& phase : ctx.exchange.phases)
    phase_at[static_cast<std::size_t>(phase.launch_after_block)] = &phase;

  for (int b = nb - 1; b >= 0; --b) {
    ++stage;
    if (!ctx.weights_resident) {
      // Weights (and a gradient buffer) return for the backward of this
      // block, gated on backward progress for liveness.
      Op win;
      win.kind = OpKind::kSwapIn;
      win.block = b;
      win.residency = tier::Residency::kWeightShard;
      win.bytes = param_sw(ctx, b);
      win.alloc = param_sw(ctx, b) + grad_sw(ctx, b);
      if (last_backward >= 0) win.after_op = last_backward;
      push(win, stage);
    }
    if (policy(b) == BlockPolicy::kRecompute) {
      while (next_swap < swapped.size() && swapped[next_swap] >= b - 1)
        issue_act_swap_ins(last_backward >= 0 ? last_backward : last_forward,
                           1);
      Op re;
      re.kind = OpKind::kRecompute;
      re.block = b;
      re.alloc = std::max<Bytes>(
          0, ctx.costs[static_cast<std::size_t>(b)].act_bytes -
                 ctx.costs[static_cast<std::size_t>(b)].boundary_bytes);
      push(re, stage);
    }
    Op bwd;
    bwd.kind = OpKind::kBackward;
    bwd.block = b;
    bwd.alloc = 0;
    bwd.free = ctx.costs[static_cast<std::size_t>(b)].act_bytes;
    last_backward = push(bwd, stage);
    issue_act_swap_ins(last_backward, 1);

    // Stage 3: gradients stream to the host (dropping the weight shard
    // too in the weight-swapping regime). The gradient bytes occupy host
    // DRAM until the block's update consumes them — a bounded, ledgered
    // lifetime, not an unbounded mirror.
    Op gout;
    gout.kind = OpKind::kSwapOut;
    gout.block = b;
    gout.residency = tier::Residency::kGradient;
    gout.bytes = grad_sw(ctx, b);
    gout.free = ctx.weights_resident ? 0 : param_sw(ctx, b) + grad_sw(ctx, b);
    const int gout_index = push(gout, stage);

    // Stage 4 + 5: phased exchange and weight update for every phase that
    // launches at this block.
    if (const net::ExchangePhase* phase =
            phase_at[static_cast<std::size_t>(b)]) {
      Op ar;
      ar.kind = OpKind::kAllReduce;
      ar.block = b;
      ar.duration = phase->allreduce_time;
      ar.after_op = gout_index;
      const int ar_index = push(ar, stage);
      for (int p : phase->blocks) {
        Op up;
        up.block = p;
        up.after_op = ar_index;
        // The update is the gradient's consumer: its bytes tell the
        // engine how much kGradient residency to return to the ledger.
        up.bytes = grad_sw(ctx, p);
        up.residency = tier::Residency::kGradient;
        if (ctx.options.update == UpdateSite::kCpu) {
          up.kind = OpKind::kCpuUpdate;
          up.duration = ctx.device.cpu_update_time(param_sw(ctx, p));
        } else {
          // Ablation: device-side update. The weights+grads must sit on
          // the GPU, occupying the compute stream; in the weight-swapping
          // regime this also forces an extra round trip, which is exactly
          // the "unacceptable performance penalty" of the trivial
          // workaround in Sec. III-G.
          up.kind = OpKind::kDeviceUpdate;
          const Bytes moved = 3 * param_sw(ctx, p);
          up.duration =
              static_cast<double>(moved) / ctx.device.device_mem_bw +
              (ctx.weights_resident
                   ? 0.0
                   : ctx.device.h2d_time(param_sw(ctx, p) + grad_sw(ctx, p)) +
                         ctx.device.d2h_time(param_sw(ctx, p)));
        }
        push(up, stage);
      }
    }
  }
}

}  // namespace

PlanResult plan_data_parallel(
    const graph::Model& model, const sim::DeviceSpec& device,
    const DistributedOptions& options, const CancelToken& control,
    const std::function<void(const PlanResult&)>& on_improved) {
  // Decide the weight regime.
  const sim::LayerCostTable table(model, device);
  const BlockCost total =
      table.cost({0, static_cast<int>(model.num_layers())});
  const double frac = options.weight_shard_fraction;
  const Bytes weight_state = static_cast<Bytes>(
      std::llround(static_cast<double>(total.param_bytes + total.grad_bytes) *
                   frac));
  const bool weights_resident =
      weight_state < device.memory_capacity / 2;

  // ---- Blocking (Opt-1 for the distributed pipeline) ----
  // Each variant is scored by makespan() into one reused plan and scratch;
  // only a new best is replayed with a trace and kept, as in KarmaPlanner.
  std::optional<PlanResult> best;
  const sim::Engine engine(device);
  sim::ReplayScratch scratch;
  Plan plan;
  std::vector<Seconds> iter_end;

  const auto try_candidate = [&](const std::vector<Block>& blocks) {
    // Cooperative cancellation point, once per candidate blocking — the
    // same boundary discipline as KarmaPlanner (never mid-simulation).
    if (const StopReason reason = control.stop_reason();
        reason != StopReason::kNone)
      throw SearchInterrupted{reason};
    const std::vector<BlockCost> costs = table.costs(blocks);

    // Activation budget: capacity minus resident weight state (resident
    // regime) or minus the in-flight weight shards (swapping regime).
    Bytes act_budget = device.memory_capacity;
    if (weights_resident) {
      act_budget -= weight_state;
    } else {
      Bytes max_wshard = 0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const Bytes shard = static_cast<Bytes>(std::llround(
            static_cast<double>(costs[b].param_bytes + costs[b].grad_bytes) *
            frac));
        max_wshard = std::max(max_wshard, shard);
      }
      act_budget -= 4 * max_wshard;  // forward lookahead + backward pair
    }
    if (act_budget <= 0) return;

    // Host residency the pipeline itself pins or keeps in flight
    // (DESIGN.md §9): the master weight shards live in DRAM for the whole
    // run (the CPU update reads and writes them; the swapping regime
    // streams the device copy from them), and in the worst case every
    // block's gradient shard is simultaneously between its gradient-out
    // and its update. Both charge the host tier ahead of any activation
    // spill — this is what replaced the old "host tier stays unbounded"
    // carve-out.
    const ShardResidency shards = ShardResidency::from_costs(costs, frac);

    // Activation spills route exactly like the single-GPU planner, with
    // the host pre-charged by the optimizer reserve plus the shard
    // residency above.
    std::vector<BlockPolicy> policies;
    try {
      std::vector<int> reach;
      for (const auto& blk : blocks) reach.push_back(table.reach(blk));
      route_policies(
          device, blocks, costs, reach, act_budget,
          options.planner.schedule.reserved_host_bytes + shards.total(),
          options.planner.enable_recompute, policies);
    } catch (const InfeasibleError&) {
      return;  // spill fits no tier at this blocking
    }

    // Opt-2 (constraint 10.1) variant: recompute the swapped blocks whose
    // rematerialization is cheaper than their swap-in. Both variants are
    // emitted and engine-ranked; the better one survives.
    std::vector<std::vector<BlockPolicy>> variants = {policies};
    if (options.planner.enable_recompute) {
      auto flipped = policies;
      for (std::size_t b = 0; b < blocks.size(); ++b)
        if (recompute_beats_swap_in(device, costs[b], flipped[b]))
          flipped[b] = BlockPolicy::kRecompute;
      if (flipped != policies) variants.push_back(std::move(flipped));
    }

    // Gradient-exchange plan (stage 4).
    std::vector<Bytes> grad_bytes;
    std::vector<Seconds> bwd_time;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      grad_bytes.push_back(static_cast<Bytes>(std::llround(
          static_cast<double>(costs[b].grad_bytes) * frac)));
      bwd_time.push_back(costs[b].bwd_time);
    }
    net::ExchangePlan exchange;
    switch (options.exchange) {
      case ExchangeMode::kBulk:
        exchange = net::bulk_exchange(options.net, options.num_gpus, grad_bytes);
        break;
      case ExchangeMode::kPerBlock:
        exchange =
            net::per_block_exchange(options.net, options.num_gpus, grad_bytes);
        break;
      case ExchangeMode::kMerged:
        exchange = net::merged_exchange(options.net, options.num_gpus,
                                        grad_bytes, bwd_time);
        break;
    }

    for (const auto& variant : variants) {
      // Static per-tier admission: activation spills, the optimizer
      // reserve, the pinned weight shards, and the worst-case in-flight
      // gradients must all fit the bounded host tier together. The plan
      // carries the bounded hierarchy; the engine's per-class ledger
      // replays shard and gradient lifetimes dynamically against it
      // (gradient-out charges, the block's update releases), so
      // multi-iteration pipelines are admitted honestly instead of
      // through the old unbounded-host carve-out.
      std::optional<tier::StorageHierarchy> plan_hierarchy;
      try {
        plan_hierarchy =
            admit_tiered_plan(device, costs, variant,
                              options.planner.schedule.reserved_host_bytes,
                              shards);
      } catch (const InfeasibleError&) {
        continue;  // this policy set overflows a bounded tier
      }
      plan.strategy = weights_resident ? "karma-dp" : "karma-dp+weight-swap";
      plan.hierarchy = std::move(plan_hierarchy);
      plan.host_baseline_resident = shards.pinned_weight_bytes;
      plan.blocks = blocks;
      plan.costs = costs;
      plan.baseline_resident = weights_resident ? weight_state : 0;
      plan.capacity = weights_resident
                          ? device.memory_capacity - weight_state
                          : device.memory_capacity;
      plan.ops.clear();
      plan.stage_of.clear();
      const EmitContext ctx{blocks,  costs,    variant, device,
                            options, exchange, weights_resident};
      for (int it = 0; it < options.iterations; ++it)
        emit_iteration(plan, ctx, it);

      control.count_candidate(/*simulated=*/true);
      try {
        engine.makespan(plan, scratch);
      } catch (const InfeasibleError&) {
        // infeasible candidate (engine deadlock); anything else — a plan
        // that fails validation, bad_alloc — is a bug and propagates
        continue;
      }
      // Steady-state iteration time: span between the completion of the
      // last op of consecutive iterations.
      iter_end.assign(static_cast<std::size_t>(options.iterations), 0.0);
      for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        Seconds& end =
            iter_end[static_cast<std::size_t>(plan.ops[i].iteration)];
        end = std::max(end, scratch.ops[i].end);
      }
      const Seconds iteration_time =
          options.iterations > 1
              ? iter_end[static_cast<std::size_t>(options.iterations - 1)] -
                    iter_end[static_cast<std::size_t>(options.iterations - 2)]
              : iter_end.front();
      if (best && !(iteration_time < best->iteration_time)) continue;
      PlanResult result;
      result.trace = engine.run(plan);
      result.first_iteration_time = iter_end.front();
      result.iteration_time = iteration_time;
      result.occupancy = result.trace.occupancy();
      result.schedule = plan;
      result.exchange = exchange;
      result.weights_resident = weights_resident;
      result.policies = variant;
      best = std::move(result);
      // Snapshot first, progress flag second — as in KarmaPlanner.
      if (on_improved) on_improved(*best);
      control.report_best(best->iteration_time);
    }
  };

  // Candidate blockings over clean cut points.
  const auto cuts = candidate_cut_points(model);
  const int max_k = std::min<int>(options.planner.max_blocks,
                                  static_cast<int>(cuts.size()) - 1);
  for (int k = std::max(2, options.planner.min_blocks); k <= max_k;
       k = k < 8 ? k + 1 : k + k / 2) {
    const auto blocks = blocks_from_boundaries(uniform_boundaries(cuts, k));
    if (!blocks.empty()) try_candidate(blocks);
  }

  if (!best)
    throw std::runtime_error("plan_data_parallel: no feasible plan for '" +
                             model.name() + "' on " + device.name);
  return std::move(*best);
}

}  // namespace karma::core
