#include "src/baselines/strategies.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/graph/memory_model.h"

namespace karma::baselines {
namespace {

using core::BlockPolicy;
using core::ScheduleOptions;
using sim::Block;

/// Per-layer blocks grouped at clean cut points: the layer-wise methods
/// (vDNN++, ooc_cuDNN, SuperNeurons) operate at layer granularity, but a
/// residual block's interior is not independently swappable (the skip edge
/// pins the entry activation), so we use the finest clean partition.
std::vector<Block> finest_blocks(const graph::Model& model) {
  return core::blocks_from_boundaries(core::candidate_cut_points(model));
}

std::optional<PlanResult> evaluate(const graph::Model& model,
                                   const sim::DeviceSpec& device,
                                   const std::vector<Block>& blocks,
                                   const std::vector<BlockPolicy>& policies,
                                   const std::string& name,
                                   const ScheduleOptions& options) {
  core::PlannerOptions popt;
  popt.schedule = options;
  const core::KarmaPlanner planner(model, device, popt);
  return planner.evaluate(blocks, policies, name);
}

/// True if the layer range contains any weight-bearing heavy layer; the
/// SuperNeurons swap-vs-recompute split keys on layer type.
bool has_heavy_layer(const graph::Model& model, const Block& b) {
  for (int i = b.first_layer; i < b.last_layer; ++i)
    if (!graph::is_cheap_to_recompute(model.layer(i).kind)) return true;
  return false;
}

}  // namespace

std::optional<PlanResult> plan_incore(const graph::Model& model,
                                      const sim::DeviceSpec& device) {
  if (graph::in_core_footprint(model) > device.memory_capacity)
    return std::nullopt;
  const auto blocks = finest_blocks(model);
  const std::vector<BlockPolicy> policies(blocks.size(),
                                          BlockPolicy::kResident);
  return evaluate(model, device, blocks, policies, "in-core", {});
}

std::optional<PlanResult> plan_vdnnpp(const graph::Model& model,
                                      const sim::DeviceSpec& device) {
  // Eager strategy (Fig. 2a): swap out after every block, tail included;
  // backward prefetch has one block of lookahead.
  const auto blocks = finest_blocks(model);
  const std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  ScheduleOptions options;
  options.prefetch_window = 2;  // Sin(b) launches as B(b+1) starts
  return evaluate(model, device, blocks, policies, "vDNN++", options);
}

std::optional<PlanResult> plan_ooc_cudnn(const graph::Model& model,
                                         const sim::DeviceSpec& device) {
  // Synchronous per-layer swaps, no prefetch: a block's swap-in starts
  // only when the preceding backward has fully completed.
  const auto blocks = finest_blocks(model);
  const std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  ScheduleOptions options;
  options.prefetch_window = 1;
  return evaluate(model, device, blocks, policies, "ooc_cuDNN", options);
}

std::optional<PlanResult> plan_superneurons(const graph::Model& model,
                                            const sim::DeviceSpec& device) {
  // Type-based split, no cost model (Sec. II-A.3): blocks containing conv
  // or other GEMM-heavy layers are swapped; cheap blocks are recomputed.
  const auto blocks = finest_blocks(model);
  std::vector<BlockPolicy> policies;
  policies.reserve(blocks.size());
  for (const auto& b : blocks)
    policies.push_back(has_heavy_layer(model, b) ? BlockPolicy::kSwap
                                                 : BlockPolicy::kRecompute);
  // The very first block feeds every recompute chain; SuperNeurons keeps
  // inputs resident.
  if (!policies.empty()) policies.front() = BlockPolicy::kResident;
  ScheduleOptions options;
  options.prefetch_window = 2;
  return evaluate(model, device, blocks, policies, "SuperNeurons", options);
}

std::optional<PlanResult> plan_checkpointing(const graph::Model& model,
                                             const sim::DeviceSpec& device) {
  // sqrt(N) uniform segments over the clean cuts, everything recomputed
  // from checkpoints but the last segment: it is consumed first in
  // backward, and every checkpointing implementation keeps it resident.
  const int segments = std::max(
      2, static_cast<int>(std::lround(std::sqrt(
             static_cast<double>(model.num_layers())))));
  const auto blocks = core::blocks_from_boundaries(
      core::uniform_boundaries(core::candidate_cut_points(model), segments));
  return evaluate(model, device, blocks, core::remat_policies(blocks.size()),
                  "GradCheckpoint", {});
}

std::optional<PlanResult> plan_checkmate(const graph::Model& model,
                                         const sim::DeviceSpec& device) {
  // Checkmate solves optimal rematerialization with an ILP. For a chain
  // at block granularity the optimum over contiguous-segment remat can be
  // found exactly by scanning checkpoint densities; we keep the best
  // feasible one (no swapping — Checkmate is a pure-recompute method).
  std::optional<PlanResult> best;
  const auto cuts = core::candidate_cut_points(model);
  const int max_segments =
      std::min<int>(64, static_cast<int>(cuts.size()) - 1);
  for (int segments = 2; segments <= max_segments; ++segments) {
    const auto blocks = core::blocks_from_boundaries(
        core::uniform_boundaries(cuts, segments));
    if (blocks.size() < 2) continue;
    auto result = evaluate(model, device, blocks,
                           core::remat_policies(blocks.size()), "Checkmate",
                           {});
    if (result && (!best || result->iteration_time < best->iteration_time))
      best = std::move(result);
  }
  return best;
}

std::optional<PlanResult> plan_um_naive(const graph::Model& model,
                                        const sim::DeviceSpec& device) {
  // Demand paging: no prefetch (window 1, like ooc_cuDNN) and every
  // transfer runs at fault-handling bandwidth. NVIDIA's UM page-fault
  // path sustains roughly a third of pinned-copy bandwidth with ~40 us
  // service latency per fault burst.
  sim::DeviceSpec um = device;
  um.h2d_bw /= 3.0;
  um.d2h_bw /= 3.0;
  um.swap_latency += 40e-6;
  const auto blocks = finest_blocks(model);
  const std::vector<BlockPolicy> policies(blocks.size(), BlockPolicy::kSwap);
  ScheduleOptions options;
  options.prefetch_window = 1;
  return evaluate(model, um, blocks, policies, "UM-naive", options);
}

namespace {

/// The KARMA rows run the same search an uncalibrated api::Engine runs for
/// these requests (no optimizer, so no host reserve), without the Engine's
/// plan cache or calibration: figure rows always carry the search's full
/// trace, whatever KARMA_CACHE_DIR or KARMA_CALIB_DIR hold.
std::optional<PlanResult> plan_karma_search(const graph::Model& model,
                                            const sim::DeviceSpec& device,
                                            bool recompute) {
  core::PlannerOptions options;
  options.enable_recompute = recompute;
  try {
    return core::KarmaPlanner(model, device, options).plan();
  } catch (const std::runtime_error&) {
    return std::nullopt;  // no feasible blocking
  }
}

}  // namespace

std::optional<PlanResult> plan_karma(const graph::Model& model,
                                     const sim::DeviceSpec& device) {
  return plan_karma_search(model, device, /*recompute=*/false);
}

std::optional<PlanResult> plan_karma_recompute(const graph::Model& model,
                                               const sim::DeviceSpec& device) {
  return plan_karma_search(model, device, /*recompute=*/true);
}

const std::vector<StrategyEntry>& all_strategies() {
  static const std::vector<StrategyEntry> entries = {
      {"in-core", &plan_incore},
      {"UM-naive", &plan_um_naive},
      {"vDNN++", &plan_vdnnpp},
      {"ooc_cuDNN", &plan_ooc_cudnn},
      {"SuperNeurons", &plan_superneurons},
      {"GradCheckpoint", &plan_checkpointing},
      {"Checkmate", &plan_checkmate},
      {"KARMA", &plan_karma},
      {"KARMA+recompute", &plan_karma_recompute},
  };
  return entries;
}

}  // namespace karma::baselines
