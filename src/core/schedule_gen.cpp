#include "src/core/schedule_gen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/graph/memory_model.h"
#include "src/tier/spill.h"
#include "src/util/infeasible.h"

namespace karma::core {

const char* block_policy_name(BlockPolicy policy) {
  switch (policy) {
    case BlockPolicy::kResident: return "resident";
    case BlockPolicy::kSwap: return "swap";
    case BlockPolicy::kRecompute: return "recompute";
    case BlockPolicy::kSwapNvme: return "swap-nvme";
  }
  return "?";
}

tier::Tier swap_tier_of(BlockPolicy policy) {
  if (policy == BlockPolicy::kSwapNvme) return tier::Tier::kNvme;
  return tier::Tier::kHost;
}

namespace {

/// capacity_based_policies into `policies`, reusing its buffer.
void assign_capacity_policies(const std::vector<sim::Block>& blocks,
                              const std::vector<sim::BlockCost>& costs,
                              Bytes act_budget,
                              std::vector<BlockPolicy>& policies) {
  const auto nb = blocks.size();
  policies.assign(nb, BlockPolicy::kSwap);
  if (nb == 0) return;

  // Headroom that must stay free for staging: the two largest swapped
  // blocks could be in flight (one swapping in, one being consumed) plus
  // the boundary checkpoints recomputes pin. Conservative but cheap; the
  // engine-backed search discards any policy set that still deadlocks.
  Bytes max_act = 0;
  for (const auto& c : costs) max_act = std::max(max_act, c.act_bytes);
  const Bytes headroom = 2 * max_act;

  // Keep the tail resident while it fits (Fig. 2b: the blocks needed at
  // the start of the backward phase should never leave the device).
  Bytes resident = 0;
  for (std::size_t i = nb; i-- > 0;) {
    const Bytes act = costs[i].act_bytes;
    if (resident + act + headroom <= act_budget) {
      policies[i] = BlockPolicy::kResident;
      resident += act;
    } else {
      break;  // a non-suffix resident set would not help the phase switch
    }
  }
}

/// Block b has an outgoing skip into a non-adjacent block. Blocks tile the
/// layers in order, so a successor lands past block b + 1 exactly when it
/// reaches block b + 1's last layer or beyond.
bool has_long_skip(const std::vector<sim::Block>& blocks,
                   const std::vector<int>& reach, std::size_t b) {
  return b + 1 < blocks.size() && reach[b] >= blocks[b + 1].last_layer;
}

}  // namespace

std::vector<BlockPolicy> capacity_based_policies(
    const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs, Bytes act_budget) {
  std::vector<BlockPolicy> policies;
  assign_capacity_policies(blocks, costs, act_budget, policies);
  return policies;
}

std::vector<BlockPolicy> tiered_policies(
    const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs, Bytes act_budget,
    const tier::StorageHierarchy& hierarchy, Bytes reserved_host) {
  auto policies = capacity_based_policies(blocks, costs, act_budget);

  // Collect swapped blocks descending: the router fills the innermost tier
  // (host) first, so listing the blocks needed soonest in the backward
  // pass first gives them DRAM and spills the early blocks to NVMe.
  std::vector<std::size_t> order;
  std::vector<Bytes> payloads;
  for (std::size_t b = blocks.size(); b-- > 0;) {
    if (policies[b] == BlockPolicy::kSwap) {
      order.push_back(b);
      payloads.push_back(costs[b].act_bytes);
    }
  }
  const auto routes = tier::route_spills(payloads, hierarchy, reserved_host);
  for (std::size_t i = 0; i < order.size(); ++i)
    if (routes[i].destination == tier::Tier::kNvme)
      policies[order[i]] = BlockPolicy::kSwapNvme;
  return policies;
}

ShardResidency ShardResidency::from_costs(
    const std::vector<sim::BlockCost>& costs, double shard_fraction) {
  ShardResidency shards;
  for (const auto& c : costs) {
    shards.pinned_weight_bytes += static_cast<Bytes>(std::llround(
        static_cast<double>(c.param_bytes) * shard_fraction));
    shards.transient_gradient_bytes += static_cast<Bytes>(std::llround(
        static_cast<double>(c.grad_bytes) * shard_fraction));
  }
  return shards;
}

std::optional<tier::StorageHierarchy> admit_tiered_plan(
    const sim::DeviceSpec& device, const std::vector<sim::BlockCost>& costs,
    const std::vector<BlockPolicy>& policies, Bytes reserved_host,
    const ShardResidency& shards) {
  // Static rejection: every tier must be able to hold what the policy set
  // routes to it, counting the worst case where all of a tier's swapped
  // blocks are offloaded at once (true between the phases). Host-pinned
  // optimizer state and the distributed pipeline's shard residency —
  // master weight shards plus all gradients in flight — are charged
  // before any activation spill; admitting that worst case statically is
  // what lets the engine's bounded per-class ledger run without deadlock.
  Bytes host_spill = 0, nvme_spill = 0;
  for (std::size_t b = 0; b < policies.size(); ++b) {
    if (policies[b] == BlockPolicy::kSwap)
      host_spill += costs[b].act_bytes;
    else if (policies[b] == BlockPolicy::kSwapNvme)
      nvme_spill += costs[b].act_bytes;
  }
  if (nvme_spill > 0 && !device.has_nvme())
    throw InfeasibleError(
        "admit_tiered_plan: swap-nvme policy on device '" + device.name +
        "' which has no NVMe tier");
  if (device.host_capacity > 0 &&
      host_spill + reserved_host + shards.total() > device.host_capacity)
    throw InfeasibleError(
        "admit_tiered_plan: host tier overflow (" + format_bytes(host_spill) +
        " spilled + " + format_bytes(reserved_host) + " reserved + " +
        format_bytes(shards.pinned_weight_bytes) + " weight shards + " +
        format_bytes(shards.transient_gradient_bytes) + " gradients > " +
        format_bytes(device.host_capacity) + " DRAM); route blocks to NVMe");
  if (device.has_nvme() && nvme_spill > device.nvme_capacity)
    throw InfeasibleError(
        "admit_tiered_plan: NVMe tier overflow (" + format_bytes(nvme_spill) +
        " spilled > " + format_bytes(device.nvme_capacity) + ")");
  if (device.host_capacity <= 0 && !device.has_nvme()) return std::nullopt;

  tier::StorageHierarchy hierarchy = sim::hierarchy_of(device);
  if (reserved_host <= 0) return hierarchy;
  // Pre-charge the reserve by shrinking the host tier the engine's ledger
  // sees; an unbounded host absorbs it without accounting.
  std::vector<tier::TierSpec> tiers = hierarchy.tiers();
  for (auto& t : tiers)
    if (t.tier == tier::Tier::kHost && !t.unbounded())
      t.capacity -= reserved_host;
  return tier::StorageHierarchy(std::move(tiers));
}

std::vector<bool> blocks_with_long_skips(const std::vector<sim::Block>& blocks,
                                         const std::vector<int>& reach) {
  std::vector<bool> mask(blocks.size(), false);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    mask[b] = has_long_skip(blocks, reach, b);
  return mask;
}

void route_policies(const sim::DeviceSpec& device,
                    const std::vector<sim::Block>& blocks,
                    const std::vector<sim::BlockCost>& costs,
                    const std::vector<int>& reach, Bytes act_budget,
                    Bytes reserved_host, bool enable_recompute,
                    std::vector<BlockPolicy>& policies) {
  // Seed devices (unbounded host, no NVMe) keep the two-tier policy set
  // bit-identically; tiered routing is a strict superset.
  if (device.host_capacity > 0 || device.has_nvme())
    policies = tiered_policies(blocks, costs, act_budget,
                               sim::hierarchy_of(device), reserved_host);
  else
    assign_capacity_policies(blocks, costs, act_budget, policies);
  // A long skip's source must not be swapped out ahead of its consumer;
  // recompute keeps the boundary checkpoint available.
  for (std::size_t b = 0; b < blocks.size(); ++b)
    if (is_swap_policy(policies[b]) && has_long_skip(blocks, reach, b))
      policies[b] =
          enable_recompute ? BlockPolicy::kRecompute : BlockPolicy::kResident;
}

bool recompute_beats_swap_in(const sim::DeviceSpec& device,
                             const sim::BlockCost& cost, BlockPolicy policy) {
  return is_swap_policy(policy) &&
         cost.fwd_time <
             device.read_from_tier_time(swap_tier_of(policy), cost.act_bytes);
}

std::vector<BlockPolicy> remat_policies(std::size_t num_blocks) {
  std::vector<BlockPolicy> policies(num_blocks, BlockPolicy::kRecompute);
  if (!policies.empty()) policies.back() = BlockPolicy::kResident;
  return policies;
}

sim::Plan build_training_plan(const graph::Model& model,
                              const sim::DeviceSpec& device,
                              const std::vector<sim::Block>& blocks,
                              const std::vector<BlockPolicy>& policies,
                              const std::string& strategy,
                              const ScheduleOptions& options,
                              const std::vector<sim::BlockCost>*
                                  precomputed_costs) {
  sim::Plan plan;
  emit_training_plan(plan, device, blocks,
                     precomputed_costs
                         ? *precomputed_costs
                         : sim::LayerCostTable(model, device).costs(blocks),
                     policies, strategy, options);
  return plan;
}

void emit_training_plan(sim::Plan& plan, const sim::DeviceSpec& device,
                        const std::vector<sim::Block>& blocks,
                        const std::vector<sim::BlockCost>& costs,
                        const std::vector<BlockPolicy>& policies,
                        const std::string& strategy,
                        const ScheduleOptions& options) {
  if (blocks.size() != policies.size())
    throw std::invalid_argument("build_training_plan: size mismatch");
  if (costs.size() != blocks.size())
    throw std::invalid_argument(
        "build_training_plan: precomputed costs/blocks size mismatch");

  plan.strategy = strategy;
  plan.blocks = blocks;
  plan.costs = costs;
  plan.ops.clear();
  plan.stage_of.clear();
  plan.host_baseline_resident = 0;

  // Weights and weight gradients stay on the device for single-GPU plans
  // (the data-parallel planner swaps them when they do not fit).
  Bytes weights = 0;
  for (const auto& c : plan.costs) weights += c.param_bytes + c.grad_bytes;
  if (weights >= device.memory_capacity)
    throw InfeasibleError(
        "build_training_plan: weights alone exceed device capacity; use the "
        "distributed (weight-swapping) planner");
  plan.baseline_resident = weights;
  plan.capacity = device.memory_capacity - weights;

  // ---- Per-tier plan admission (tiered-offload extension) ----
  plan.hierarchy = admit_tiered_plan(device, plan.costs, policies,
                                     options.reserved_host_bytes);
  emit_iteration(plan, device, policies, options.prefetch_window);
}

void emit_iteration(sim::Plan& plan, const sim::DeviceSpec& device,
                    const std::vector<BlockPolicy>& policies,
                    int prefetch_window, int iteration,
                    const DataParallelStages* stages) {
  const int nb = static_cast<int>(plan.costs.size());
  const auto policy = [&](int b) {
    return policies[static_cast<std::size_t>(b)];
  };
  const auto cost = [&](int b) -> const sim::BlockCost& {
    return plan.costs[static_cast<std::size_t>(b)];
  };
  // Per-rank weight and gradient shard of block b.
  const auto shard = [&](Bytes bytes) {
    return static_cast<Bytes>(std::llround(static_cast<double>(bytes) *
                                           stages->shard_fraction));
  };
  const auto param_sw = [&](int b) { return shard(cost(b).param_bytes); };
  const auto grad_sw = [&](int b) { return shard(cost(b).grad_bytes); };
  const bool swap_weights = stages && !stages->weights_resident;

  int stage = plan.stage_of.empty() ? 0 : plan.stage_of.back();
  const auto push = [&](sim::Op op, int op_stage) {
    op.iteration = iteration;
    plan.ops.push_back(op);
    plan.stage_of.push_back(op_stage);
    return static_cast<int>(plan.ops.size()) - 1;
  };

  // ---- Forward phase ----
  int forward_back1 = -1, forward_back2 = -1;  // ops F(b-1), F(b-2)
  for (int b = 0; b < nb; ++b) {
    ++stage;
    if (swap_weights || (stages && iteration > 0)) {
      // Weight-swapping regime: stream this block's weight shard in from
      // the pinned host master copy, two blocks of lookahead at most so
      // parameters never pile up on the device. Resident regime: refresh
      // the weights in place with the updated values (the dependency
      // chain gates this on the block's update). Weight-shard reads leave
      // the host ledger alone.
      sim::Op win;
      win.kind = sim::OpKind::kSwapIn;
      win.block = b;
      win.residency = tier::Residency::kWeightShard;
      win.bytes = param_sw(b);
      win.alloc = swap_weights ? win.bytes : 0;
      if (swap_weights) win.after_op = forward_back2;
      push(win, stage);
    }
    sim::Op fwd;
    fwd.kind = sim::OpKind::kForward;
    fwd.block = b;
    fwd.retains = policy(b) != BlockPolicy::kRecompute;
    forward_back2 = forward_back1;
    forward_back1 = push(fwd, stage);
    if (is_swap_policy(policy(b))) {
      // Swap-out trails on the D2H stream (or the NVMe-write stream for
      // storage-bound blocks); same display stage as the next forward
      // (paper notation "F2||Sout1").
      sim::Op out;
      out.kind = sim::OpKind::kSwapOut;
      out.block = b;
      out.tier = swap_tier_of(policy(b));
      push(out, stage + (b + 1 < nb ? 1 : 0));
    }
    if (swap_weights) {
      // Drop the (unmodified) weights: the host copy is authoritative, so
      // eviction is free — no PCIe traffic and no host ledger charge.
      sim::Op drop;
      drop.kind = sim::OpKind::kSwapOut;
      drop.block = b;
      drop.residency = tier::Residency::kWeightShard;
      drop.bytes = 0;
      drop.free = param_sw(b);
      drop.duration = 0.0;
      push(drop, stage);
    }
  }
  const int last_forward = forward_back1;

  // ---- Backward phase ----
  // Swap-ins are issued descending (the order backward consumes them).
  // The first `prefetch_window` of them may start as soon as the forward
  // pass tail completes and memory frees (capacity-based greediness); the
  // rest are gated on backward progress to guarantee liveness.
  // `next_swap` is the highest swapped block (host and NVMe alike) whose
  // swap-in is not issued yet, -1 once all are.
  const auto swapped_below = [&](int b) {
    while (b >= 0 && !is_swap_policy(policy(b))) --b;
    return b;
  };
  int next_swap = swapped_below(nb - 1);

  const auto issue_swap_ins = [&](int gate_op, int count) {
    for (int k = 0; k < count && next_swap >= 0; ++k) {
      sim::Op in;
      in.kind = sim::OpKind::kSwapIn;
      in.block = next_swap;
      in.tier = swap_tier_of(policy(next_swap));
      in.after_op = gate_op;
      push(in, stage);
      next_swap = swapped_below(next_swap - 1);
    }
  };

  // Initial window, gated only on the end of the forward pass.
  issue_swap_ins(last_forward, prefetch_window);

  int last_backward = -1;
  std::size_t next_phase = 0;  // the next exchange phase to launch
  for (int b = nb - 1; b >= 0; --b) {
    if (swap_weights) {
      // Weights (and a gradient buffer) return for the backward of this
      // block, gated on backward progress for liveness.
      sim::Op win;
      win.kind = sim::OpKind::kSwapIn;
      win.block = b;
      win.residency = tier::Residency::kWeightShard;
      win.bytes = param_sw(b);
      win.alloc = param_sw(b) + grad_sw(b);
      win.after_op = last_backward;
      push(win, stage);
    }
    if (policy(b) == BlockPolicy::kRecompute) {
      // A recompute reads its predecessor block's boundary output; if the
      // predecessor is swap-policy its swap-in must be *issued* by now
      // (the engine still decides when it actually runs). Fast-forward
      // the prefetch queue to cover it.
      while (next_swap >= 0 && next_swap >= b - 1)
        issue_swap_ins(last_backward >= 0 ? last_backward : last_forward, 1);
      sim::Op re;
      re.kind = sim::OpKind::kRecompute;
      re.block = b;
      // The boundary checkpoint is already resident; rematerialize the
      // interior activations only.
      re.alloc = std::max<Bytes>(0, cost(b).act_bytes - cost(b).boundary_bytes);
      push(re, ++stage);
    }
    sim::Op bwd;
    bwd.kind = sim::OpKind::kBackward;
    bwd.block = b;
    // The gradient wavefront borrows the bytes freed as activations are
    // consumed within the block (documented approximation, DESIGN.md §5).
    bwd.alloc = 0;
    bwd.free = cost(b).act_bytes;
    last_backward = push(bwd, is_swap_policy(policy(b)) ? ++stage : stage);
    // Each completed backward opens the next prefetch slot.
    issue_swap_ins(last_backward, 1);
    if (!stages) continue;

    // Stage 3: gradients stream to the host (dropping the weight shard
    // too in the weight-swapping regime). The gradient bytes occupy host
    // DRAM until the block's update consumes them — a bounded, ledgered
    // lifetime, not an unbounded mirror.
    sim::Op gout;
    gout.kind = sim::OpKind::kSwapOut;
    gout.block = b;
    gout.residency = tier::Residency::kGradient;
    gout.bytes = grad_sw(b);
    gout.free = swap_weights ? param_sw(b) + grad_sw(b) : 0;
    const int gout_index = push(gout, stage);

    // Stages 4 + 5: the exchange phase launching at this block, then the
    // update of every block it carries.
    const auto& phases = stages->exchange.phases;
    for (; next_phase < phases.size() &&
           phases[next_phase].launch_after_block == b;
         ++next_phase) {
      const net::ExchangePhase& phase = phases[next_phase];
      sim::Op ar;
      ar.kind = sim::OpKind::kAllReduce;
      ar.block = b;
      ar.duration = phase.allreduce_time;
      ar.after_op = gout_index;
      const int ar_index = push(ar, stage);
      for (const int p : phase.blocks) {
        sim::Op up;
        up.block = p;
        up.after_op = ar_index;
        // The update is the gradient's consumer: its bytes tell the
        // engine how much kGradient residency to return to the ledger.
        up.bytes = grad_sw(p);
        up.residency = tier::Residency::kGradient;
        if (stages->update == UpdateSite::kCpu) {
          up.kind = sim::OpKind::kCpuUpdate;
          up.duration = device.cpu_update_time(param_sw(p));
        } else {
          // Ablation: device-side update. The weights+grads must sit on
          // the GPU, occupying the compute stream; in the weight-swapping
          // regime this also forces an extra round trip, which is exactly
          // the "unacceptable performance penalty" of the trivial
          // workaround in Sec. III-G.
          up.kind = sim::OpKind::kDeviceUpdate;
          up.duration =
              static_cast<double>(3 * param_sw(p)) / device.device_mem_bw +
              (swap_weights ? device.h2d_time(param_sw(p) + grad_sw(p)) +
                                  device.d2h_time(param_sw(p))
                            : 0.0);
        }
        push(up, stage);
      }
    }
  }
}

sim::Plan build_incore_plan(const graph::Model& model,
                            const sim::DeviceSpec& device,
                            const std::vector<sim::Block>& blocks) {
  const std::vector<BlockPolicy> policies(blocks.size(),
                                          BlockPolicy::kResident);
  return build_training_plan(model, device, blocks, policies, "in-core");
}

}  // namespace karma::core
