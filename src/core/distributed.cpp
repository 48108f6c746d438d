#include "src/core/distributed.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/core/candidate_step.h"
#include "src/util/infeasible.h"

namespace karma::core {

PlanResult plan_data_parallel(
    const graph::Model& model, const sim::DeviceSpec& device,
    const DistributedOptions& options, const CancelToken& control,
    const std::function<void(const PlanResult&)>& on_improved) {
  // Decide the weight regime.
  const sim::LayerCostTable table(model, device);
  const sim::BlockCost total =
      table.cost({0, static_cast<int>(model.num_layers())});
  const double frac = options.weight_shard_fraction;
  const Bytes weight_state = static_cast<Bytes>(
      std::llround(static_cast<double>(total.param_bytes + total.grad_bytes) *
                   frac));
  const bool weights_resident =
      weight_state < device.memory_capacity / 2;

  // ---- Blocking (Opt-1 for the distributed pipeline) ----
  // Each variant goes through the one candidate step KarmaPlanner takes:
  // scored by makespan() into one reused plan and scratch, and only a new
  // best is emitted again, replayed with a trace and kept.
  CandidateStep step(control, on_improved);
  const sim::Engine engine(device);
  sim::ReplayScratch scratch;
  sim::Plan plan;
  std::string key;
  std::vector<Seconds> iter_end;  // each iteration's last completion
  // Steady-state iteration time of `p` given each op's completion
  // `end_of(i)`: the span between the ends of the last two iterations.
  const auto iteration_time = [&](const sim::Plan& p, const auto& end_of) {
    iter_end.assign(static_cast<std::size_t>(options.iterations), 0.0);
    for (std::size_t i = 0; i < p.ops.size(); ++i) {
      Seconds& end = iter_end[static_cast<std::size_t>(p.ops[i].iteration)];
      end = std::max(end, end_of(i));
    }
    return options.iterations > 1
               ? iter_end[static_cast<std::size_t>(options.iterations - 1)] -
                     iter_end[static_cast<std::size_t>(options.iterations - 2)]
               : iter_end.front();
  };

  const auto try_candidate = [&](const std::vector<sim::Block>& blocks) {
    const std::vector<sim::BlockCost> costs = table.costs(blocks);

    // Activation budget: capacity minus resident weight state (resident
    // regime) or minus the in-flight weight shards (swapping regime).
    Bytes act_budget = device.memory_capacity;
    if (weights_resident) {
      act_budget -= weight_state;
    } else {
      Bytes max_wshard = 0;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const Bytes shard = static_cast<Bytes>(std::llround(
            static_cast<double>(costs[b].param_bytes + costs[b].grad_bytes) *
            frac));
        max_wshard = std::max(max_wshard, shard);
      }
      act_budget -= 4 * max_wshard;  // forward lookahead + backward pair
    }
    if (act_budget <= 0) return;

    // Host residency the pipeline itself pins or keeps in flight
    // (DESIGN.md §9): the master weight shards live in DRAM for the whole
    // run (the CPU update reads and writes them; the swapping regime
    // streams the device copy from them), and in the worst case every
    // block's gradient shard is simultaneously between its gradient-out
    // and its update. Both charge the host tier ahead of any activation
    // spill — this is what replaced the old "host tier stays unbounded"
    // carve-out.
    const ShardResidency shards = ShardResidency::from_costs(costs, frac);

    // Activation spills route exactly like the single-GPU planner, with
    // the host pre-charged by the optimizer reserve plus the shard
    // residency above.
    std::vector<BlockPolicy> policies;
    try {
      std::vector<int> reach;
      for (const auto& blk : blocks) reach.push_back(table.reach(blk));
      route_policies(
          device, blocks, costs, reach, act_budget,
          options.planner.schedule.reserved_host_bytes + shards.total(),
          options.planner.enable_recompute, policies);
    } catch (const InfeasibleError&) {
      return;  // spill fits no tier at this blocking
    }

    // Opt-2 (constraint 10.1) variant: recompute the swapped blocks whose
    // rematerialization is cheaper than their swap-in. Both variants are
    // emitted and engine-ranked; the better one survives.
    std::vector<std::vector<BlockPolicy>> variants = {policies};
    if (options.planner.enable_recompute) {
      auto flipped = policies;
      for (std::size_t b = 0; b < blocks.size(); ++b)
        if (recompute_beats_swap_in(device, costs[b], flipped[b]))
          flipped[b] = BlockPolicy::kRecompute;
      if (flipped != policies) variants.push_back(std::move(flipped));
    }

    // Gradient-exchange plan (stage 4).
    std::vector<Bytes> grad_bytes;
    std::vector<Seconds> bwd_time;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      grad_bytes.push_back(static_cast<Bytes>(std::llround(
          static_cast<double>(costs[b].grad_bytes) * frac)));
      bwd_time.push_back(costs[b].bwd_time);
    }
    net::ExchangePlan exchange;
    switch (options.exchange) {
      case ExchangeMode::kBulk:
        exchange = net::bulk_exchange(options.net, options.num_gpus, grad_bytes);
        break;
      case ExchangeMode::kPerBlock:
        exchange =
            net::per_block_exchange(options.net, options.num_gpus, grad_bytes);
        break;
      case ExchangeMode::kMerged:
        exchange = net::merged_exchange(options.net, options.num_gpus,
                                        grad_bytes, bwd_time);
        break;
    }

    const DataParallelStages stages{exchange, weights_resident, frac,
                                    options.update};
    for (const auto& variant : variants) {
      // Static per-tier admission: activation spills, the optimizer
      // reserve, the pinned weight shards, and the worst-case in-flight
      // gradients must all fit the bounded host tier together. The plan
      // carries the bounded hierarchy; the engine's per-class ledger
      // replays shard and gradient lifetimes dynamically against it
      // (gradient-out charges, the block's update releases), so
      // multi-iteration pipelines are admitted honestly instead of
      // through the old unbounded-host carve-out. A variant rejected
      // here is not a candidate and is not counted.
      std::optional<tier::StorageHierarchy> plan_hierarchy;
      try {
        plan_hierarchy =
            admit_tiered_plan(device, costs, variant,
                              options.planner.schedule.reserved_host_bytes,
                              shards);
      } catch (const InfeasibleError&) {
        continue;  // this policy set overflows a bounded tier
      }
      const auto emit = [&](sim::Plan& out) {
        out.strategy = weights_resident ? "karma-dp" : "karma-dp+weight-swap";
        out.hierarchy = plan_hierarchy;
        out.host_baseline_resident = shards.pinned_weight_bytes;
        out.blocks = blocks;
        out.costs = costs;
        out.baseline_resident = weights_resident ? weight_state : 0;
        out.capacity = weights_resident
                           ? device.memory_capacity - weight_state
                           : device.memory_capacity;
        out.ops.clear();
        out.stage_of.clear();
        for (int it = 0; it < options.iterations; ++it)
          emit_iteration(out, device, variant,
                         options.planner.schedule.prefetch_window, it,
                         &stages);
      };
      bool scored = false;  // `plan` holds this variant (no memo hit)
      step.offer(
          blocks, variant, key,
          [&] {
            emit(plan);
            scored = true;
            engine.makespan(plan, scratch);
            return iteration_time(
                plan, [&](std::size_t i) { return scratch.ops[i].end; });
          },
          [&] {
            if (!scored) emit(plan);
            PlanResult result;
            result.schedule = plan;
            result.trace = engine.run(plan);
            result.iteration_time =
                iteration_time(result.schedule, [&](std::size_t i) {
                  return result.trace.records[i].end;
                });
            result.first_iteration_time = iter_end.front();
            result.occupancy = result.trace.occupancy();
            result.exchange = exchange;
            result.weights_resident = weights_resident;
            result.policies = variant;
            return result;
          });
    }
  };

  // Candidate blockings over clean cut points.
  const auto cuts = candidate_cut_points(model);
  const int max_k = std::min<int>(options.planner.max_blocks,
                                  static_cast<int>(cuts.size()) - 1);
  for (int k = std::max(2, options.planner.min_blocks); k <= max_k;
       k = k < 8 ? k + 1 : k + k / 2) {
    const auto blocks = blocks_from_boundaries(uniform_boundaries(cuts, k));
    if (!blocks.empty()) try_candidate(blocks);
  }

  if (!step.best())
    throw std::runtime_error("plan_data_parallel: no feasible plan for '" +
                             model.name() + "' on " + device.name);
  return step.finish({});
}

}  // namespace karma::core
