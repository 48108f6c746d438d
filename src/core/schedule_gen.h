// Schedule generation (paper Algorithm 1 + Sec. III-E/F/G).
//
// Given a blocking and a per-block policy — keep resident, swap, or
// discard-and-recompute — emit the Plan IR for one training iteration:
//
//   forward:  F(b) for each block in order; capacity-based swap-outs
//             trail the forwards on the D2H stream; tail blocks that fit
//             are never swapped (Fig. 2b's "no swap-out if memory
//             available");
//   backward: swap-ins are issued greedily (capacity-based prefetch,
//             bounded by a small window to guarantee liveness), recomputes
//             are interleaved on the compute stream just before the
//             backward that consumes them (Fig. 2c), backwards run
//             back-to-front.
//
// A data-parallel rank's iteration is the same Algorithm 1 plus the
// Sec. III-G stages 3-5 (gradient swap-out, phased AllReduce, host-side
// update) and, when weights exceed the device, per-block weight shards:
// emit_iteration writes both, so the single-GPU and the data-parallel
// planners share one emitter.
//
// The engine turns this issue order into actual overlap; stalls appear
// exactly where a dependency or the capacity limit blocks a stream.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/net/phased_exchange.h"
#include "src/sim/engine.h"
#include "src/sim/plan.h"

namespace karma::core {

enum class BlockPolicy {
  kResident,   ///< activations stay on the device between phases
  kSwap,       ///< swap-out after forward to host DRAM, swap-in before bwd
  kRecompute,  ///< discard after forward, rematerialize in backward
  kSwapNvme,   ///< swap-out to NVMe storage (tiered-offload extension)
};

const char* block_policy_name(BlockPolicy policy);

/// True for both swap flavors (host and NVMe destinations).
inline bool is_swap_policy(BlockPolicy p) {
  return p == BlockPolicy::kSwap || p == BlockPolicy::kSwapNvme;
}

/// The offload tier a swap policy targets.
tier::Tier swap_tier_of(BlockPolicy policy);

struct ScheduleOptions {
  /// How many swap-ins may be outstanding ahead of backward progress.
  /// Greedy capacity-based prefetch with a liveness bound: window w means
  /// Sin(b) is gated on the backward of block b + w.
  int prefetch_window = 2;
  /// Host DRAM pre-charged before any activation spill is admitted —
  /// optimizer state pinned on the host for CPU-side updates (ROADMAP
  /// `reserved_host`; set by karma::api::Engine from the request's
  /// OptimizerSpec).
  /// Charged in tiered_policies routing, in build_training_plan's per-tier
  /// admission, and against the engine's host ledger. 0 = seed behavior.
  Bytes reserved_host_bytes = 0;
};

/// The capacity-based policy of Sec. III-E.2: keep the *tail* of the model
/// resident (it is needed first in the backward pass), swap everything
/// else, subject to `act_budget` bytes available for activations with
/// enough headroom left to stage swapped blocks through.
std::vector<BlockPolicy> capacity_based_policies(
    const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs, Bytes act_budget);

/// Tier-qualified extension of capacity_based_policies: blocks the
/// capacity rule marks for swapping are routed host-first — the latest
/// swapped blocks (needed soonest in the backward pass) claim DRAM, and
/// the overflow (the earliest blocks, which have the most prefetch slack
/// before their backward) spills to NVMe. With an unbounded host tier the
/// result is exactly the two-tier policy set. `reserved_host` bytes are
/// pre-charged to the host tier before routing (host-pinned optimizer
/// state). Throws karma::InfeasibleError when a payload fits no tier.
std::vector<BlockPolicy> tiered_policies(
    const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs, Bytes act_budget,
    const tier::StorageHierarchy& hierarchy, Bytes reserved_host = 0);

/// Host residency the distributed pipeline adds on top of activation
/// spills (DESIGN.md §9): the pinned master weight shards and the
/// worst-case transient gradient bytes in flight between a gradient-out
/// and the update that consumes it. Zero for single-GPU plans.
struct ShardResidency {
  Bytes pinned_weight_bytes = 0;     ///< host master copy, whole-run lifetime
  Bytes transient_gradient_bytes = 0;  ///< worst case: all grads in flight
  Bytes total() const { return pinned_weight_bytes + transient_gradient_bytes; }

  /// The residency a blocking's per-block weight/gradient shards pin on
  /// the host at `shard_fraction` (ZeRO partitioning scales each block's
  /// payload; per-block rounding matches what emit_iteration transfers).
  static ShardResidency from_costs(const std::vector<sim::BlockCost>& costs,
                                   double shard_fraction);
};

/// Per-tier plan admission shared by the single-GPU and distributed plan
/// builders: rejects (karma::InfeasibleError) policy sets whose spill
/// overflows a bounded tier, counting `reserved_host` plus the
/// distributed pipeline's shard residency (pinned weight shards +
/// worst-case in-flight gradients) against DRAM, and returns the
/// hierarchy the plan should carry — host capacity reduced by the reserve
/// so the engine's ledger enforces it too (shard and gradient bytes stay
/// dynamic: the engine charges them per class at run time, and the static
/// worst case admitted here guarantees it never deadlocks). nullopt for
/// seed (two-level, unbounded-host) devices.
std::optional<tier::StorageHierarchy> admit_tiered_plan(
    const sim::DeviceSpec& device, const std::vector<sim::BlockCost>& costs,
    const std::vector<BlockPolicy>& policies, Bytes reserved_host,
    const ShardResidency& shards = {});

/// Blocks with an outgoing skip edge into a non-adjacent block (U-Net's
/// contracting path, Sec. III-F.4) must not be swapped out before their
/// consumer runs; returns the per-block mask. `reach[b]` is block b's
/// sim::LayerCostTable::reach, so the test is O(blocks).
std::vector<bool> blocks_with_long_skips(const std::vector<sim::Block>& blocks,
                                         const std::vector<int>& reach);

/// The policy routing every planner applies to a candidate blocking:
/// tiered_policies (with `reserved_host` pre-charged) when the device
/// bounds its host tier or has NVMe, capacity_based_policies otherwise;
/// then the Sec. III-F.4 rule moves each swapped block with an outgoing
/// long skip (blocks_with_long_skips over `reach`) to recompute (resident
/// when `enable_recompute` is off). Throws karma::InfeasibleError when a
/// spill fits no tier. The policies go into `policies`, whose buffer is
/// reused (a search lane routes every candidate into one).
void route_policies(const sim::DeviceSpec& device,
                    const std::vector<sim::Block>& blocks,
                    const std::vector<sim::BlockCost>& costs,
                    const std::vector<int>& reach, Bytes act_budget,
                    Bytes reserved_host, bool enable_recompute,
                    std::vector<BlockPolicy>& policies);

/// Constraint 10.1: `policy` swaps the block and recomputing it is
/// cheaper than swapping its activations back in from that tier (NVMe
/// reads are slower, so storage-bound blocks qualify more readily).
bool recompute_beats_swap_in(const sim::DeviceSpec& device,
                             const sim::BlockCost& cost, BlockPolicy policy);

/// The pure-rematerialization corner of the policy space: every block
/// recomputed but the last, which stays resident (checkpointing's policy,
/// and the one KARMA's search adds to stay a superset of it).
std::vector<BlockPolicy> remat_policies(std::size_t num_blocks);

/// Where a data-parallel rank applies its optimizer step (stage 5).
enum class UpdateSite { kCpu, kDevice };

/// A data-parallel rank's Sec. III-G stages 3-5, which emit_iteration adds
/// to Algorithm 1's iteration: after each backward the block's gradient
/// shard swaps out to the host (3), each `exchange` phase AllReduces once
/// its launch block's gradients are out (4), and the phase's blocks are
/// updated at `update` (5). The phases must be listed in launch order,
/// back to front, as net's exchange builders return them. With
/// `weights_resident` false each block's weight shard also streams in for
/// its forward and backward and is dropped after both; with it true,
/// every iteration after the first refreshes the resident weights in
/// place. Weight and gradient payloads are the blocks' bytes scaled by
/// `shard_fraction` (ZeRO partitioning).
struct DataParallelStages {
  const net::ExchangePlan& exchange;
  bool weights_resident = true;
  double shard_fraction = 1.0;
  UpdateSite update = UpdateSite::kCpu;
};

/// Appends one training iteration (Algorithm 1) of `plan.blocks` under
/// `policies` to `plan.ops` and `plan.stage_of`, with each op tagged
/// `iteration`; `plan.costs` must hold the blocks' costs. `stages` null is
/// a single-GPU iteration; otherwise the rank's stages 3-5 and weight
/// shards join it, and the ops Algorithm 1 emits stay exactly those of the
/// single-GPU iteration. Display stages follow Fig. 2 ("F2||Sout1": a
/// swap-out shares the next forward's stage; a recompute or a swapped
/// block's backward opens a new one); a forward's weight shard shares its
/// forward's stage and every other stage 3-5 or weight op the stage of
/// the op before it. `device` prices the stage-5 updates.
void emit_iteration(sim::Plan& plan, const sim::DeviceSpec& device,
                    const std::vector<BlockPolicy>& policies,
                    int prefetch_window, int iteration = 0,
                    const DataParallelStages* stages = nullptr);

/// Emits the single-GPU training plan for one iteration. `model` supplies
/// weights footprint (kept resident; must fit), `device` the capacity.
/// Throws karma::InfeasibleError when weights alone exceed the device.
/// `precomputed_costs`, when given, must be the sim::LayerCostTable cost
/// of each block in order (the planner passes its memoized costs);
/// nullptr builds a table here.
sim::Plan build_training_plan(const graph::Model& model,
                              const sim::DeviceSpec& device,
                              const std::vector<sim::Block>& blocks,
                              const std::vector<BlockPolicy>& policies,
                              const std::string& strategy,
                              const ScheduleOptions& options = {},
                              const std::vector<sim::BlockCost>*
                                  precomputed_costs = nullptr);

/// build_training_plan into `plan`, reusing its buffers, with `costs` the
/// sim::LayerCostTable cost of each block in order. The planner's search
/// lanes emit every candidate into one Plan this way. Throws like
/// build_training_plan.
void emit_training_plan(sim::Plan& plan, const sim::DeviceSpec& device,
                        const std::vector<sim::Block>& blocks,
                        const std::vector<sim::BlockCost>& costs,
                        const std::vector<BlockPolicy>& policies,
                        const std::string& strategy,
                        const ScheduleOptions& options = {});

/// In-core baseline: everything resident, no swaps. Deadlocks in the
/// engine (by design) when the model does not fit.
sim::Plan build_incore_plan(const graph::Model& model,
                            const sim::DeviceSpec& device,
                            const std::vector<sim::Block>& blocks);

}  // namespace karma::core
