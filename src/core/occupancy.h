// The paper's occupancy performance model (Sec. III-E, Eq. 1-8).
//
// This is the *analytic* projection KARMA optimizes: given a blocking and
// the device's swap-in throughput, estimate per-step occupancy and the
// catch-up step theta at which processing overtakes prefetching (Eq. 7).
// The discrete-event engine is the ground truth these estimates are
// validated against in tests. The planner does not call this model: it
// ranks every candidate by its simulated engine makespan alone.
#pragma once

#include <vector>

#include "src/sim/plan.h"

namespace karma::core {

/// Block-adjusted swap-in throughput (Eq. 4): the minimum of far-memory,
/// near-memory, and interconnect throughput. On every platform we model,
/// the interconnect is the binding term.
Bandwidth swap_in_throughput(const sim::DeviceSpec& device);

struct OccupancyEstimate {
  /// Per-step occupancy O_j (Eq. 8) for the backward phase, one entry per
  /// block in processing (back-to-front) order. 1.0 until theta, then the
  /// swap-bound regime of Eq. 6.
  std::vector<double> per_step;
  /// The catch-up step theta (Eq. 7): index into per_step at which
  /// processing first overtakes swap-in; per_step.size() if never.
  std::size_t theta = 0;
  /// Estimated backward-phase makespan implied by the occupancies.
  Seconds backward_time = 0.0;
  /// Mean occupancy over all steps — the objective of Opt. Problem 1.
  double mean() const;
};

/// Evaluates the model for a backward pass over `blocks` (model order)
/// where `swapped[b]` marks blocks whose activations must be swapped in.
/// `resident_budget` is the device capacity available for activations
/// (Eq. 3's initial B_avail).
OccupancyEstimate estimate_backward_occupancy(
    const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs, const std::vector<bool>& swapped,
    const sim::DeviceSpec& device, Bytes resident_budget);

}  // namespace karma::core
