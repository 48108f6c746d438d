// karma::place — heterogeneous fleet modeling (DESIGN.md §16).
//
// The paper simulates ONE rank and multiplies, because "all ranks are
// symmetric in synchronous data parallelism" (src/core/distributed.h).
// Real fleets are not symmetric: they mix GPU generations and have uneven
// host DRAM and NVMe per node, so synchronous iteration time is set by
// the worst-placed straggler, not the average rank. A FleetSpec names
// each rank and gives it its own full sim::DeviceSpec — compute,
// interconnect, tier capacities, calibration overlay, and NVMe contention
// model — and the placement layer (placement.h) decides which weight
// shards each node OWNS so the straggler is as fast as possible.
#pragma once

#include <string>
#include <vector>

#include "src/net/collective.h"
#include "src/sim/device.h"

namespace karma::place {

/// How blocks/weight-shards are assigned to fleet nodes.
enum class PlacementStrategy {
  /// Greedy cost-sorted packing (the sdpb Block_Cost /
  /// compute_block_grid_mapping pattern): blocks sorted by descending
  /// ownership cost, each assigned to the admissible node with the lowest
  /// projected finish time. The default.
  kCostBased,
  /// Naive round-robin by block index — the baseline cost-based placement
  /// is benchmarked against (bench/fig_placement.cpp).
  kRoundRobin,
};

const char* placement_strategy_name(PlacementStrategy strategy);

/// One named rank of the fleet. The DeviceSpec carries everything that
/// differs between generations: FLOPS, HBM, host link, DRAM / NVMe tier
/// capacities and bandwidths, and the NVMe contention model.
struct FleetNode {
  std::string name;
  sim::DeviceSpec device;
};

/// A heterogeneous fleet: the named nodes plus the interconnect they
/// exchange gradients over. Serialized (versioned, deterministic) by
/// api::fleet_to_json / fleet_from_json and fingerprinted into the
/// request cache key, so any fleet change re-keys cached plans.
struct FleetSpec {
  std::vector<FleetNode> nodes;
  /// Gradient-exchange topology (defaults are the ABCI Table II numbers).
  net::NetSpec net;
  PlacementStrategy strategy = PlacementStrategy::kCostBased;

  int num_nodes() const { return static_cast<int>(nodes.size()); }
};

/// Structural validation: >= 2 nodes, non-empty unique names, every node
/// device has memory capacity. Returns an empty string when valid, else a
/// human-readable reason (api::Engine maps it to kInvalidRequest).
std::string validate_fleet(const FleetSpec& fleet);

/// Preset mixed-generation fleet for benches and tests:
/// `strong` A100-class nodes (a100_fleet_node: ample DRAM, fast gen4
/// NVMe) alongside `weak` V100-class nodes whose host DRAM is cut to
/// `weak_host_capacity` and whose shared NVMe runs contended
/// (queue_depth 4, mixed-load read/write penalties) — the configuration
/// where shard ownership placement decides the straggler.
FleetSpec mixed_generation_fleet(int strong, int weak,
                                 Bytes weak_host_capacity);

}  // namespace karma::place
