#include "src/place/fleet.h"

#include <set>

namespace karma::place {

const char* placement_strategy_name(PlacementStrategy strategy) {
  switch (strategy) {
    case PlacementStrategy::kCostBased: return "cost-based";
    case PlacementStrategy::kRoundRobin: return "round-robin";
  }
  return "?";
}

std::string validate_fleet(const FleetSpec& fleet) {
  if (fleet.num_nodes() < 2)
    return "fleet needs >= 2 nodes (single-node requests plan without a "
           "fleet)";
  std::set<std::string> names;
  for (const FleetNode& node : fleet.nodes) {
    if (node.name.empty()) return "fleet node has an empty name";
    if (!names.insert(node.name).second)
      return "duplicate fleet node name '" + node.name + "'";
    if (node.device.memory_capacity <= 0)
      return "fleet node '" + node.name + "' device has no memory capacity";
  }
  return {};
}

FleetSpec mixed_generation_fleet(int strong, int weak,
                                 Bytes weak_host_capacity) {
  FleetSpec fleet;
  for (int i = 0; i < strong; ++i)
    fleet.nodes.push_back(
        {"a100-" + std::to_string(i), sim::a100_fleet_node()});
  for (int i = 0; i < weak; ++i) {
    sim::DeviceSpec d = sim::v100_abci_nvme();
    d.host_capacity = weak_host_capacity;
    // The weak nodes' SSD is shared (checkpoint writer, co-tenants):
    // sustained bandwidth derates behind a queue of 4 competing IOs and
    // mixed-direction traffic stalls reads harder than writes.
    d.nvme_contention.queue_depth = 4.0;
    d.nvme_contention.mixed_read_penalty = 1.6;
    d.nvme_contention.mixed_write_penalty = 1.25;
    fleet.nodes.push_back({"v100-" + std::to_string(i), std::move(d)});
  }
  return fleet;
}

}  // namespace karma::place
