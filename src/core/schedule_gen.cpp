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
  const int nb = static_cast<int>(blocks.size());

  plan.strategy = strategy;
  plan.blocks = blocks;
  plan.costs = costs;
  plan.ops.clear();
  plan.stage_of.clear();
  plan.host_baseline_resident = 0;

  // Weights and weight gradients stay on the device for single-GPU plans
  // (the distributed planner handles weight swapping separately).
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

  int stage = 0;
  const auto push = [&](sim::Op op, int op_stage) {
    plan.ops.push_back(op);
    plan.stage_of.push_back(op_stage);
    return static_cast<int>(plan.ops.size()) - 1;
  };

  // ---- Forward phase ----
  for (int b = 0; b < nb; ++b) {
    sim::Op fwd;
    fwd.kind = sim::OpKind::kForward;
    fwd.block = b;
    fwd.retains = policies[static_cast<std::size_t>(b)] != BlockPolicy::kRecompute;
    push(fwd, ++stage);
    if (is_swap_policy(policies[static_cast<std::size_t>(b)])) {
      // Swap-out trails on the D2H stream (or the NVMe-write stream for
      // storage-bound blocks); same display stage as the next forward
      // (paper notation "F2||Sout1").
      sim::Op out;
      out.kind = sim::OpKind::kSwapOut;
      out.block = b;
      out.tier = swap_tier_of(policies[static_cast<std::size_t>(b)]);
      push(out, stage + (b + 1 < nb ? 1 : 0));
    }
  }
  const int last_forward_index = [&] {
    for (int i = static_cast<int>(plan.ops.size()) - 1; i >= 0; --i)
      if (plan.ops[static_cast<std::size_t>(i)].kind == sim::OpKind::kForward)
        return i;
    return -1;
  }();

  // ---- Backward phase ----
  // Swap-ins are issued descending (the order backward consumes them).
  // The first `prefetch_window` of them may start as soon as the forward
  // pass tail completes and memory frees (capacity-based greediness); the
  // rest are gated on backward progress to guarantee liveness.
  // `next_swap` is the highest swapped block (host and NVMe alike) whose
  // swap-in is not issued yet, -1 once all are.
  const auto swapped_below = [&](int b) {
    while (b >= 0 && !is_swap_policy(policies[static_cast<std::size_t>(b)]))
      --b;
    return b;
  };
  int next_swap = swapped_below(nb - 1);

  const auto issue_swap_ins = [&](int gate_op, int count, int display_stage) {
    for (int k = 0; k < count && next_swap >= 0; ++k) {
      sim::Op in;
      in.kind = sim::OpKind::kSwapIn;
      in.block = next_swap;
      in.tier = swap_tier_of(policies[static_cast<std::size_t>(next_swap)]);
      in.after_op = gate_op;
      push(in, display_stage);
      next_swap = swapped_below(next_swap - 1);
    }
  };

  // Initial window, gated only on the end of the forward pass.
  issue_swap_ins(last_forward_index, options.prefetch_window, stage);

  int last_backward_pushed = -1;
  for (int b = nb - 1; b >= 0; --b) {
    if (policies[static_cast<std::size_t>(b)] == BlockPolicy::kRecompute) {
      // A recompute reads its predecessor block's boundary output; if the
      // predecessor is swap-policy its swap-in must be *issued* by now
      // (the engine still decides when it actually runs). Fast-forward
      // the prefetch queue to cover it.
      while (next_swap >= 0 && next_swap >= b - 1) {
        issue_swap_ins(last_backward_pushed >= 0 ? last_backward_pushed
                                                 : last_forward_index,
                       1, stage);
      }
      sim::Op re;
      re.kind = sim::OpKind::kRecompute;
      re.block = b;
      // The boundary checkpoint is already resident; rematerialize the
      // interior activations only.
      re.alloc = std::max<Bytes>(
          0, plan.costs[static_cast<std::size_t>(b)].act_bytes -
                 plan.costs[static_cast<std::size_t>(b)].boundary_bytes);
      push(re, ++stage);
    }
    sim::Op bwd;
    bwd.kind = sim::OpKind::kBackward;
    bwd.block = b;
    // The gradient wavefront borrows the bytes freed as activations are
    // consumed within the block (documented approximation, DESIGN.md §5).
    bwd.alloc = 0;
    bwd.free = plan.costs[static_cast<std::size_t>(b)].act_bytes;
    last_backward_pushed =
        push(bwd, is_swap_policy(policies[static_cast<std::size_t>(b)])
                      ? ++stage
                      : stage);
    // Each completed backward opens the next prefetch slot.
    issue_swap_ins(last_backward_pushed, 1, stage);
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
