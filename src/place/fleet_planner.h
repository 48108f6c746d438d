// Per-node planning over a heterogeneous fleet (DESIGN.md §16).
//
// Symmetric data parallelism plans ONE rank and multiplies; a fleet
// breaks that, so plan_fleet runs a full blocking/policy search per
// heterogeneous node — each with the host reserve its shard ownership
// implies — and composes the synchronous iteration time as the max over
// nodes of (planned makespan + exposed exchange tail + CPU update of
// owned shards). The binding node is reported as the straggler; making it
// faster is the placement layer's objective.
#pragma once

#include <vector>

#include "src/core/planner.h"
#include "src/net/phased_exchange.h"
#include "src/place/placement.h"
#include "src/util/cancel.h"

namespace karma::place {

struct FleetPlanOptions {
  /// Per-node search knobs. schedule.reserved_host_bytes is the BASE
  /// reserve replicated on every node (placement adds each node's owned
  /// shard + optimizer bytes on top — see PlacementOptions).
  core::PlannerOptions planner;
  PlacementOptions placement;
};

/// A fleet's plan: the placement, whose per-node summaries and straggler
/// fields carry the straggler roll-up, and each node's search result.
struct FleetPlanResult {
  PlacementPlan placement;
  /// Parallel to FleetSpec::nodes; nodes[n].exchange is node n's AllReduce.
  std::vector<core::PlanResult> nodes;
};

/// Places shard ownership (place_blocks), searches a schedule per node —
/// deduped by (device class, host reserve) and warm-started from the
/// nearest already-planned class — then composes the straggler time into
/// the placement.
/// Throws FleetInfeasible naming the binding node when placement cannot
/// admit a block or a node's own search finds no feasible blocking;
/// rethrows core::SearchInterrupted untouched when `control` fires.
FleetPlanResult plan_fleet(const graph::Model& model, const FleetSpec& fleet,
                           const FleetPlanOptions& options,
                           const CancelToken& control = {});

}  // namespace karma::place
