#include "src/calib/repair.h"

#include <algorithm>

namespace karma::calib {

/// Share of the cold anneal budget a warm-start repair runs.
constexpr double kRepairAnnealScale = 0.25;

int repair_anneal_budget(int cold_iterations) {
  return std::max(60, static_cast<int>(cold_iterations * kRepairAnnealScale));
}

core::PlanResult repair(const graph::Model& model,
                        const sim::DeviceSpec& device,
                        const CalibrationTable& table,
                        const std::vector<sim::Block>& seed_blocks,
                        const std::vector<core::BlockPolicy>& seed_policies,
                        const RepairOptions& options,
                        const CancelToken& control) {
  core::PlannerOptions planner_options = options.planner;
  planner_options.anneal_iterations =
      repair_anneal_budget(planner_options.anneal_iterations);
  const core::KarmaPlanner planner(model, apply(table, device),
                                   planner_options);
  return planner.plan_from(seed_blocks, seed_policies, control);
}

}  // namespace karma::calib
