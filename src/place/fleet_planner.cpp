#include "src/place/fleet_planner.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <utility>

namespace karma::place {

namespace {

/// Search identity of a node: nodes of the same device class with the
/// same host reserve would run the exact same deterministic search, so
/// they share one PlanResult.
using SearchKey = std::pair<std::string, Bytes>;

}  // namespace

FleetPlanResult plan_fleet(const graph::Model& model, const FleetSpec& fleet,
                           const FleetPlanOptions& options,
                           const CancelToken& control) {
  const std::string why = validate_fleet(fleet);
  if (!why.empty()) throw std::runtime_error("plan_fleet: " + why);

  const int num_nodes = fleet.num_nodes();

  FleetPlanResult out;
  out.placement = place_blocks(
      model, fleet,
      placement_blocks(model,
                       std::max(options.placement.target_blocks, num_nodes)),
      options.placement);
  out.nodes.resize(static_cast<std::size_t>(num_nodes));

  // --- per-node schedule searches, deduped and warm-started ---
  std::map<SearchKey, int> searched;  // key -> node whose result to share
  for (int n = 0; n < num_nodes; ++n) {
    const FleetNode& node = fleet.nodes[n];
    NodeSummary& summary = out.placement.nodes[static_cast<std::size_t>(n)];
    const SearchKey key{node.device.name, summary.reserved_host_bytes};
    const auto hit = searched.find(key);
    if (hit != searched.end()) {
      out.nodes[n] = out.nodes[hit->second];
      summary.warm_started =
          out.placement.nodes[static_cast<std::size_t>(hit->second)]
              .warm_started;
      continue;
    }

    core::PlannerOptions planner_options = options.planner;
    planner_options.schedule.reserved_host_bytes =
        summary.reserved_host_bytes;
    core::KarmaPlanner planner(model, node.device, planner_options);

    // Warm start from the nearest already-searched device class (by HBM
    // capacity, then insertion order): heterogeneous generations mostly
    // agree on blocking, so the neighbour's incumbent seeds the anneal.
    int seed_node = -1;
    Bytes seed_distance = 0;
    for (const auto& [seen_key, seen_node] : searched) {
      const Bytes distance = std::llabs(
          fleet.nodes[seen_node].device.memory_capacity -
          node.device.memory_capacity);
      if (seed_node < 0 || distance < seed_distance) {
        seed_node = seen_node;
        seed_distance = distance;
      }
    }

    try {
      if (seed_node >= 0) {
        const core::PlanResult& seed = out.nodes[seed_node];
        out.nodes[n] =
            planner.plan_from(seed.schedule.blocks, seed.policies, control);
      } else {
        out.nodes[n] = planner.plan(control);
      }
    } catch (const FleetInfeasible&) {
      throw;  // already names its node
    } catch (const std::runtime_error& ex) {
      // A node whose own search finds no feasible blocking is a fleet
      // infeasibility binding on that node (SearchInterrupted is not a
      // std::exception and tunnels through untouched).
      throw FleetInfeasible(node.name, {},
                            "fleet node '" + node.name +
                                "': " + std::string(ex.what()));
    }
    summary.warm_started = out.nodes[n].search_stats.warm_started;
    searched.emplace(key, n);
  }

  // --- straggler composition ---
  // Every rank exchanges the WHOLE model's gradients (synchronous data
  // parallelism); what differs per node is how much of the AllReduce its
  // backward hides and how long its owned-shard CPU update runs.
  PlacementPlan& placement = out.placement;
  for (int n = 0; n < num_nodes; ++n) {
    core::PlanResult& result = out.nodes[n];
    NodeSummary& summary = placement.nodes[static_cast<std::size_t>(n)];

    std::vector<Bytes> grad_bytes;
    std::vector<Seconds> bwd_times;
    grad_bytes.reserve(result.schedule.costs.size());
    bwd_times.reserve(result.schedule.costs.size());
    for (const sim::BlockCost& cost : result.schedule.costs) {
      grad_bytes.push_back(cost.grad_bytes);
      bwd_times.push_back(cost.bwd_time);
    }
    const net::ExchangePlan& exchange = result.exchange.emplace(
        net::merged_exchange(fleet.net, num_nodes, grad_bytes, bwd_times));
    summary.plan_iteration_time = result.iteration_time;
    summary.exchange_tail =
        exchange.phases.empty() ? 0.0 : exchange.phases.back().allreduce_time;
    summary.update_time =
        fleet.nodes[n].device.cpu_update_time(summary.owned_param_bytes);
    summary.total_time = result.iteration_time + summary.exchange_tail +
                         summary.update_time;

    if (n == 0 || summary.total_time > placement.iteration_time) {
      placement.iteration_time = summary.total_time;
      placement.straggler = n;
    }
  }
  return out;
}

}  // namespace karma::place
