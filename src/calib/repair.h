// calib::repair — re-plan cheaply when calibration drifts (DESIGN.md §13).
//
// When a new CalibrationTable lands, every cached plan's RequestKey goes
// stale by construction (the table hash is in the key preamble). Cold
// re-searching the whole fleet's plans would be the expensive answer; the
// cheap one is here: the stale plan is almost certainly still a *good*
// plan — measured constants drift, they do not teleport — so we re-anneal
// starting from it under the corrected cost model through the planner's
// own memoized search (KarmaPlanner::plan_from), with a reduced anneal
// budget justified by the warm seed. A seed that does not tile `model`
// gets the cold search instead. The repaired plan reports its wall-clock
// in SearchStats.
#pragma once

#include "src/calib/table.h"
#include "src/core/planner.h"

namespace karma::calib {

/// The anneal budget a warm-start repair search runs, given the cold
/// budget: a quarter of it, floored at 60 iterations so tiny cold budgets
/// still get a real refinement pass. The seed already sits near an
/// optimum of a nearby cost surface; a quarter budget recovers the
/// shifted optimum in practice while keeping repair well under cold
/// wall-clock. Shared by repair() and the api::Engine's internal repair
/// path, so the two agree by construction.
int repair_anneal_budget(int cold_iterations);

struct RepairOptions {
  /// Planner knobs for the repair search. anneal_iterations here is the
  /// *cold* budget; repair runs repair_anneal_budget of it.
  core::PlannerOptions planner;
};

/// Repairs `seed_blocks`/`seed_policies` (a plan searched under the
/// analytic model, or under an older table) for `device` as corrected by
/// `table`. Returns the planner result with SearchStats::warm_started set.
/// Throws like KarmaPlanner::plan on total infeasibility.
core::PlanResult repair(const graph::Model& model,
                        const sim::DeviceSpec& device,
                        const CalibrationTable& table,
                        const std::vector<sim::Block>& seed_blocks,
                        const std::vector<core::BlockPolicy>& seed_policies,
                        const RepairOptions& options = {},
                        const CancelToken& control = {});

}  // namespace karma::calib
