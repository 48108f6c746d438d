#include "src/place/placement.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <numeric>

#include "src/core/planner.h"
#include "src/graph/memory_model.h"
#include "src/sim/device.h"
#include "src/tier/accountant.h"

namespace karma::place {

namespace {

/// Simulated per-block costs on one device class. Ranks of the same
/// generation share a table — a block's cost is pure in the device,
/// so one simulation per class covers every node of that class.
struct DeviceClass {
  const sim::DeviceSpec* device = nullptr;
  std::vector<sim::BlockCost> costs;
  /// Sum of fwd+bwd over ALL blocks: what this class spends computing the
  /// whole model regardless of ownership. Slower generations start the
  /// greedy packing more loaded and therefore attract fewer shards.
  Seconds pipe_time = 0.0;
};

/// Bandwidth a host byte displaced by shard ownership re-stages through:
/// the contended NVMe legs when the node has a storage tier (activation
/// spill overflows DRAM down to NVMe), else the PCIe link back to the
/// device. The queue-depth derate mirrors DeviceSpec::nvme_read_time.
double displace_bw(const sim::DeviceSpec& d) {
  if (d.has_nvme()) {
    const double derate = 1.0 + d.nvme_contention.queue_depth;
    return std::min(d.nvme_read_bw, d.nvme_write_bw) / derate;
  }
  return std::min(d.h2d_bw, d.d2h_bw);
}

}  // namespace

std::vector<sim::Block> placement_blocks(const graph::Model& model,
                                         int target_blocks) {
  const std::vector<int> cuts = core::candidate_cut_points(model);
  const int num_layers = static_cast<int>(model.num_layers());

  // Per-layer retained-activation prefix sums: the balance metric. Bytes
  // are shape-derived, so no device is needed here.
  std::vector<double> prefix(static_cast<std::size_t>(num_layers) + 1, 0.0);
  for (int i = 0; i < num_layers; ++i) {
    const graph::LayerMemory mem =
        graph::layer_memory(model.layer(i), model.dtype_bytes(), {},
                            model.activation_memory_scale());
    prefix[i + 1] = prefix[i] + static_cast<double>(mem.activations);
  }

  const int max_blocks = static_cast<int>(cuts.size()) - 1;
  const int k = std::max(1, std::min(target_blocks, max_blocks));

  // Walk the ideal equal-activation thresholds, snapping each to the
  // nearest still-available cut while leaving enough cuts for the
  // remaining boundaries. Earliest cut wins ties -> deterministic.
  std::vector<int> bounds;
  bounds.reserve(static_cast<std::size_t>(k) + 1);
  bounds.push_back(0);
  std::size_t next = 1;
  for (int j = 1; j < k; ++j) {
    const double ideal = prefix[num_layers] * static_cast<double>(j) / k;
    const std::size_t last_ok =
        cuts.size() - 1 - static_cast<std::size_t>(k - j);
    std::size_t best = next;
    for (std::size_t c = next; c <= last_ok; ++c) {
      if (std::abs(prefix[cuts[c]] - ideal) <
          std::abs(prefix[cuts[best]] - ideal))
        best = c;
    }
    bounds.push_back(cuts[best]);
    next = best + 1;
  }
  bounds.push_back(num_layers);
  return core::blocks_from_boundaries(bounds);
}

PlacementPlan place_blocks(const graph::Model& model, const FleetSpec& fleet,
                           const std::vector<sim::Block>& blocks,
                           const PlacementOptions& options) {
  const int num_blocks = static_cast<int>(blocks.size());
  const int num_nodes = fleet.num_nodes();

  PlacementPlan plan;
  plan.strategy = fleet.strategy;
  plan.blocks = blocks;
  plan.owner.assign(static_cast<std::size_t>(num_blocks), -1);

  // --- per-class simulated block costs (the sdpb Block_Cost table) ---
  std::vector<int> class_of(static_cast<std::size_t>(num_nodes), 0);
  std::vector<DeviceClass> classes;
  std::map<std::string, int> class_ids;
  for (int n = 0; n < num_nodes; ++n) {
    const sim::DeviceSpec& device = fleet.nodes[n].device;
    auto [it, fresh] =
        class_ids.emplace(device.name, static_cast<int>(classes.size()));
    if (fresh) {
      DeviceClass cls;
      cls.device = &device;
      cls.costs = sim::LayerCostTable(model, device).costs(blocks);
      for (const sim::BlockCost& c : cls.costs)
        cls.pipe_time += c.fwd_time + c.bwd_time;
      classes.push_back(std::move(cls));
    }
    class_of[n] = it->second;
  }

  const auto opt_state = [&](Bytes param_bytes) -> Bytes {
    return options.optimizer_state_bytes
               ? options.optimizer_state_bytes(param_bytes)
               : 0;
  };

  // Byte fields of BlockCost are shape-derived (device-independent), so
  // any class' table serves as THE byte table.
  const std::vector<sim::BlockCost>& bytes_of = classes.front().costs;

  // Host-DRAM charge of owning block b: the pinned master shard, the
  // worst-case in-flight gradients awaiting the CPU update, and the
  // optimizer state (core::ShardResidency at fraction 1, owned extent).
  const auto charge_of = [&](int b) -> Bytes {
    const sim::BlockCost& c = bytes_of[static_cast<std::size_t>(b)];
    return c.param_bytes + c.grad_bytes + opt_state(c.param_bytes);
  };

  // Ownership cost of b on a node: the CPU update tail plus displacement
  // pressure — owned bytes crowd activations out of DRAM, and the evicted
  // bytes re-stage through the next tier down. The pressure term scales
  // with how full the node's DRAM would be, so ample-DRAM nodes own
  // almost for free while scarce ones pay contended-NVMe prices.
  const auto own_cost = [&](int b, const sim::DeviceSpec& d,
                            Bytes reserved) -> Seconds {
    const Bytes charge = charge_of(b);
    Seconds cost =
        d.cpu_update_time(bytes_of[static_cast<std::size_t>(b)].param_bytes);
    if (d.host_capacity > 0) {
      const double scarcity =
          std::min(1.0, static_cast<double>(reserved + charge) /
                            static_cast<double>(d.host_capacity));
      cost += scarcity * static_cast<double>(charge) / displace_bw(d);
    }
    return cost;
  };

  // Per-node ledgers: admission is real tier accounting, not a heuristic.
  std::vector<tier::TierAccountant> ledgers;
  ledgers.reserve(static_cast<std::size_t>(num_nodes));
  std::vector<Bytes> reserved(static_cast<std::size_t>(num_nodes), 0);
  std::vector<Seconds> load(static_cast<std::size_t>(num_nodes), 0.0);
  for (int n = 0; n < num_nodes; ++n) {
    const FleetNode& node = fleet.nodes[n];
    ledgers.emplace_back(sim::hierarchy_of(node.device));
    load[n] = classes[class_of[n]].pipe_time;
    if (options.base_reserved_host > 0) {
      if (!ledgers[n].fits(tier::Tier::kHost, options.base_reserved_host))
        throw FleetInfeasible(
            node.name,
            {{tier::Tier::kHost, options.base_reserved_host,
              node.device.host_capacity}},
            "fleet node '" + node.name + "': base host reserve (" +
                std::to_string(options.base_reserved_host) +
                " B) alone exceeds host DRAM");
      ledgers[n].charge(tier::Tier::kHost, tier::Residency::kOptimizerState,
                        options.base_reserved_host);
      reserved[n] = options.base_reserved_host;
    }
  }

  const auto admit = [&](int b, int n) -> bool {
    const sim::BlockCost& c = bytes_of[static_cast<std::size_t>(b)];
    if (!ledgers[n].fits(tier::Tier::kHost, charge_of(b))) return false;
    ledgers[n].charge(tier::Tier::kHost, tier::Residency::kWeightShard,
                      c.param_bytes + c.grad_bytes);
    ledgers[n].charge(tier::Tier::kHost, tier::Residency::kOptimizerState,
                      opt_state(c.param_bytes));
    reserved[n] += charge_of(b);
    return true;
  };

  // Names the node closest to fitting (smallest deficit) when nothing
  // admits a block: that is the binding constraint the caller should act
  // on (add DRAM there, or shrink the batch).
  const auto infeasible = [&](int b) -> FleetInfeasible {
    const Bytes charge = charge_of(b);
    int best = 0;
    Bytes best_deficit = -1;
    for (int n = 0; n < num_nodes; ++n) {
      const Bytes deficit =
          charge - ledgers[n].free_bytes(tier::Tier::kHost);
      if (best_deficit < 0 || deficit < best_deficit) {
        best = n;
        best_deficit = deficit;
      }
    }
    const FleetNode& node = fleet.nodes[best];
    return FleetInfeasible(
        node.name,
        {{tier::Tier::kHost, ledgers[best].used(tier::Tier::kHost) + charge,
          node.device.host_capacity}},
        "fleet placement infeasible: block " + std::to_string(b) +
            " (ownership charge " + std::to_string(charge) +
            " B) fits no node's host DRAM; nearest is '" + node.name +
            "' short " + std::to_string(best_deficit) + " B");
  };

  if (fleet.strategy == PlacementStrategy::kRoundRobin) {
    for (int b = 0; b < num_blocks; ++b) {
      const int n = b % num_nodes;
      if (!admit(b, n)) throw infeasible(b);
      plan.owner[b] = n;
    }
  } else {
    // Greedy cost-sorted packing: hardest blocks first (their worst-class
    // ownership cost, at full displacement pressure), each assigned to
    // the admissible node minimizing projected finish time. Strict `<`
    // comparisons keep every tie on the smaller index -> deterministic.
    std::vector<double> sort_cost(static_cast<std::size_t>(num_blocks), 0.0);
    for (int b = 0; b < num_blocks; ++b) {
      for (const DeviceClass& cls : classes) {
        const sim::DeviceSpec& d = *cls.device;
        Seconds cost = d.cpu_update_time(
            bytes_of[static_cast<std::size_t>(b)].param_bytes);
        if (d.host_capacity > 0)
          cost += static_cast<double>(charge_of(b)) / displace_bw(d);
        sort_cost[b] = std::max(sort_cost[b], cost);
      }
    }
    std::vector<int> order(static_cast<std::size_t>(num_blocks));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return sort_cost[a] > sort_cost[b];
    });

    for (const int b : order) {
      int best = -1;
      Seconds best_finish = 0.0;
      for (int n = 0; n < num_nodes; ++n) {
        if (!ledgers[n].fits(tier::Tier::kHost, charge_of(b))) continue;
        const Seconds finish =
            load[n] + own_cost(b, fleet.nodes[n].device, reserved[n]);
        if (best < 0 || finish < best_finish) {
          best = n;
          best_finish = finish;
        }
      }
      if (best < 0) throw infeasible(b);
      load[best] += own_cost(b, fleet.nodes[best].device, reserved[best]);
      admit(b, best);
      plan.owner[b] = best;
    }
  }

  // Per-node byte roll-up. The authoritative reserve recomputes optimizer
  // state over each node's TOTAL owned params (host_state_bytes need not
  // be additive across blocks).
  plan.nodes.resize(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    plan.nodes[n].name = fleet.nodes[n].name;
    plan.nodes[n].device_name = fleet.nodes[n].device.name;
  }
  for (int b = 0; b < num_blocks; ++b) {
    NodeSummary& node = plan.nodes[static_cast<std::size_t>(plan.owner[b])];
    const sim::BlockCost& c = bytes_of[static_cast<std::size_t>(b)];
    node.owned_blocks += 1;
    node.owned_param_bytes += c.param_bytes;
    node.owned_grad_bytes += c.grad_bytes;
  }
  for (NodeSummary& node : plan.nodes)
    node.reserved_host_bytes = options.base_reserved_host +
                               node.owned_param_bytes +
                               node.owned_grad_bytes +
                               opt_state(node.owned_param_bytes);
  return plan;
}

}  // namespace karma::place
