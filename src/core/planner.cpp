#include "src/core/planner.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "src/core/candidate_step.h"
#include "src/obs/span.h"
#include "src/sim/device.h"
#include "src/solver/anneal.h"
#include "src/util/infeasible.h"
#include "src/util/rng.h"

namespace karma::core {

std::vector<int> clean_cut_points(const graph::Model& model) {
  const int n = static_cast<int>(model.num_layers());
  // Position p (a boundary between layer p-1 and layer p) is clean when no
  // edge (u, v) with u < p-1 and v >= p crosses it — i.e. only the chain
  // edge spans the cut.
  std::vector<int> crossing(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& layer : model.layers()) {
    for (int succ : model.succs(layer.id)) {
      if (succ == layer.id + 1) continue;  // chain edge
      // Edge covers cuts p in (layer.id+1, succ].
      for (int p = layer.id + 2; p <= succ; ++p)
        ++crossing[static_cast<std::size_t>(p)];
    }
  }
  std::vector<int> cuts;
  for (int p = 0; p <= n; ++p)
    if (p == 0 || p == n || crossing[static_cast<std::size_t>(p)] == 0)
      cuts.push_back(p);
  return cuts;
}

std::vector<int> candidate_cut_points(const graph::Model& model) {
  std::vector<int> cuts = clean_cut_points(model);
  const int n = static_cast<int>(model.num_layers());
  // Usable when no un-cuttable span dominates the model: U-Net's nested
  // skips leave clean cuts only near the two ends, pinning the whole
  // middle into one giant block.
  int max_gap = 0;
  for (std::size_t i = 1; i < cuts.size(); ++i)
    max_gap = std::max(max_gap, cuts[i] - cuts[i - 1]);
  if (max_gap <= std::max(8, n / 8)) return cuts;
  cuts.clear();
  for (int p = 0; p <= n; ++p) cuts.push_back(p);
  return cuts;
}

std::vector<sim::Block> blocks_from_boundaries(
    const std::vector<int>& boundaries) {
  std::vector<sim::Block> blocks;
  blocks_from_boundaries(boundaries, blocks);
  return blocks;
}

void blocks_from_boundaries(const std::vector<int>& boundaries,
                            std::vector<sim::Block>& blocks) {
  blocks.clear();
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i)
    blocks.push_back({boundaries[i], boundaries[i + 1]});
}

std::vector<int> uniform_boundaries(const std::vector<int>& cuts, int k) {
  std::vector<int> boundaries;
  const auto n = cuts.size();
  for (int j = 0; j <= k; ++j)
    boundaries.push_back(cuts[std::min(
        n - 1, static_cast<std::size_t>(j) * (n - 1) /
                   static_cast<std::size_t>(k))]);
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  return boundaries;
}

bool seed_tiles_model(const graph::Model& model,
                      const std::vector<sim::Block>& blocks,
                      const std::vector<BlockPolicy>& policies) {
  if (blocks.empty() || blocks.size() != policies.size()) return false;
  int next = 0;
  for (const auto& b : blocks) {
    if (b.first_layer != next || b.last_layer <= b.first_layer) return false;
    next = b.last_layer;
  }
  return next == static_cast<int>(model.num_layers());
}

namespace {

/// One block extent's memoized table reads.
struct ExtentCost {
  sim::BlockCost cost;
  int reach = 0;
};

std::uint64_t block_key(const sim::Block& block) {
  return (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(block.first_layer))
          << 32) |
         static_cast<std::uint32_t>(block.last_layer);
}

}  // namespace

void pack_candidate_key(const std::vector<sim::Block>& blocks,
                        const std::vector<BlockPolicy>& policies,
                        std::string& key) {
  key.resize(blocks.size() * sizeof(std::uint32_t) + policies.size());
  char* out = key.data();
  for (const auto& b : blocks) {
    const auto last = static_cast<std::uint32_t>(b.last_layer);
    std::memcpy(out, &last, sizeof last);
    out += sizeof last;
  }
  for (const BlockPolicy p : policies) *out++ = static_cast<char>(p);
}

/// One search lane: the serial phases use lane 0 and portfolio worker w
/// lane w. A lane owns its block-extent memo and the buffers building and
/// scoring a candidate writes — the engine, its replay scratch, the one
/// Plan every candidate is emitted into, the candidate's boundaries,
/// blocks, costs, reaches, policies and memo key — so a lane takes no
/// lock and its buffers grow to the largest candidate once instead of
/// being allocated per candidate. The workers walk neighbouring
/// blockings, and a shared extent table would queue them all on the same
/// few shards. Each lane sits on its own cache lines.
struct alignas(64) KarmaPlanner::SearchLane {
  explicit SearchLane(const sim::DeviceSpec& device) : engine(device) {}
  std::unordered_map<std::uint64_t, ExtentCost> extents;
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  sim::Engine engine;
  sim::ReplayScratch scratch;
  sim::Plan plan;
  std::vector<int> boundaries;
  std::vector<sim::Block> blocks;
  std::vector<sim::BlockCost> costs;
  std::vector<int> reach;
  std::vector<BlockPolicy> policies;
  std::string key;
};

KarmaPlanner::KarmaPlanner(const graph::Model& model, sim::DeviceSpec device,
                           PlannerOptions options)
    : model_(model),
      device_(std::move(device)),
      options_(options),
      cut_points_(candidate_cut_points(model_)),
      table_(model_, device_) {}

void KarmaPlanner::balanced_boundaries(int num_blocks,
                                       std::vector<int>& cuts) const {
  // Greedily pick clean cut points closest to the activation-byte
  // quantiles so blocks carry comparable swap payloads.
  const Bytes total =
      table_.activations_before(static_cast<int>(model_.num_layers()));
  cuts.assign(1, 0);
  std::size_t cursor = 1;  // index into cut_points_
  for (int k = 1; k < num_blocks; ++k) {
    const Bytes target =
        total * static_cast<Bytes>(k) / static_cast<Bytes>(num_blocks);
    // First clean cut whose prefix meets the target.
    while (cursor + 1 < cut_points_.size() &&
           table_.activations_before(cut_points_[cursor]) < target)
      ++cursor;
    const int cut = cut_points_[std::min(cursor, cut_points_.size() - 2)];
    if (cut > cuts.back() && cut < static_cast<int>(model_.num_layers()))
      cuts.push_back(cut);
  }
  cuts.push_back(static_cast<int>(model_.num_layers()));
}

const std::vector<sim::BlockCost>& KarmaPlanner::block_costs(
    SearchLane& lane, const std::vector<sim::Block>& blocks) const {
  lane.costs.clear();
  lane.reach.clear();
  for (const auto& b : blocks) {
    ++lane.lookups;
    const auto [it, fresh] = lane.extents.try_emplace(block_key(b));
    if (fresh)
      it->second = {table_.cost(b), table_.reach(b)};
    else
      ++lane.hits;
    lane.costs.push_back(it->second.cost);
    lane.reach.push_back(it->second.reach);
  }
  return lane.costs;
}

const std::vector<BlockPolicy>& KarmaPlanner::initial_policies(
    SearchLane& lane, const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs) const {
  Bytes weights = 0;
  for (const auto& c : costs) weights += c.param_bytes + c.grad_bytes;
  route_policies(device_, blocks, costs, lane.reach,
                 device_.memory_capacity - weights,
                 options_.schedule.reserved_host_bytes,
                 options_.enable_recompute, lane.policies);
  return lane.policies;
}

Seconds KarmaPlanner::score(SearchLane& lane,
                            const std::vector<sim::Block>& blocks,
                            const std::vector<sim::BlockCost>& costs,
                            const std::vector<BlockPolicy>& policies,
                            const std::string& strategy) const {
  emit_training_plan(lane.plan, device_, blocks, costs, policies, strategy,
                     options_.schedule);
  return lane.engine.makespan(lane.plan, lane.scratch);
}

PlanResult KarmaPlanner::simulate_candidate(
    SearchLane& lane, const std::vector<sim::Block>& blocks,
    const std::vector<sim::BlockCost>& costs,
    const std::vector<BlockPolicy>& policies,
    const std::string& strategy) const {
  PlanResult result;
  emit_training_plan(result.schedule, device_, blocks, costs, policies,
                     strategy, options_.schedule);
  result.trace = lane.engine.run(result.schedule);
  result.policies = policies;
  result.iteration_time = result.trace.makespan;
  result.first_iteration_time = result.iteration_time;
  result.occupancy = result.trace.occupancy();
  return result;
}

std::optional<PlanResult> KarmaPlanner::evaluate(
    const std::vector<sim::Block>& blocks,
    const std::vector<BlockPolicy>& policies,
    const std::string& strategy) const {
  try {
    SearchLane lane(device_);
    return simulate_candidate(lane, blocks, block_costs(lane, blocks),
                              policies, strategy);
  } catch (const InfeasibleError&) {
    return std::nullopt;  // infeasible candidate (deadlock / over-capacity)
  }
}

PlanResult KarmaPlanner::plan(
    const CancelToken& control,
    const std::function<void(const PlanResult&)>& on_improved) const {
  return run_search(nullptr, nullptr, control, on_improved);
}

PlanResult KarmaPlanner::plan_from(
    const std::vector<sim::Block>& seed_blocks,
    const std::vector<BlockPolicy>& seed_policies, const CancelToken& control,
    const std::function<void(const PlanResult&)>& on_improved) const {
  return run_search(&seed_blocks, &seed_policies, control, on_improved);
}

PlanResult KarmaPlanner::run_search(
    const std::vector<sim::Block>* seed_blocks,
    const std::vector<BlockPolicy>* seed_policies, const CancelToken& control,
    const std::function<void(const PlanResult&)>& on_improved) const {
  const std::string strategy =
      options_.enable_recompute ? "karma+recompute" : "karma";

  // This call's candidate step and lanes: an optimization of this one
  // deterministic run, never shared across runs or callers.
  CandidateStep step(control, on_improved);
  const std::optional<PlanResult>& best = step.best();
  std::vector<SearchLane> lanes;
  const int num_lanes = std::max(1, options_.anneal_workers);
  lanes.reserve(static_cast<std::size_t>(num_lanes));
  for (int w = 0; w < num_lanes; ++w) lanes.emplace_back(device_);
  SearchLane& serial_lane = lanes[0];
  bool warm_started = false;
  int anneal_workers_used = 0;

  // Best-tracking consideration through the serial lane; returns whether
  // the candidate became the new best. Only a score that beats the
  // incumbent is materialized into a full PlanResult (plan, trace,
  // policies); the portfolio workers score through step.score directly.
  const auto consider = [&](const std::vector<sim::Block>& blocks,
                            const std::vector<sim::BlockCost>& costs,
                            const std::vector<BlockPolicy>& policies) {
    return step.offer(
        blocks, policies, serial_lane.key,
        [&] { return score(serial_lane, blocks, costs, policies, strategy); },
        [&] {
          return simulate_candidate(serial_lane, blocks, costs, policies,
                                    strategy);
        });
  };
  // A blocking's tier-routed candidate, with `costs` its block_costs
  // through the serial lane (which also left the reaches there). Policy
  // routing itself can be infeasible for a blocking (its spill fits no
  // offload tier): that throws InfeasibleError, and callers skip the
  // blocking like any deadlock.
  const auto consider_routed = [&](const std::vector<sim::Block>& blocks,
                                   const std::vector<sim::BlockCost>& costs) {
    return consider(blocks, costs,
                    initial_policies(serial_lane, blocks, costs));
  };
  // Pure-rematerialization corner (keeps KARMA's search a superset of
  // Checkmate-style checkpoint-density scans).
  const auto consider_remat = [&](const std::vector<sim::Block>& blocks,
                                  const std::vector<sim::BlockCost>& costs) {
    return options_.enable_recompute && blocks.size() >= 2 &&
           consider(blocks, costs, remat_policies(blocks.size()));
  };
  // Both candidates of one blocking, costed once.
  const auto consider_blocking = [&](const std::vector<sim::Block>& blocks) {
    const auto& costs = block_costs(serial_lane, blocks);
    try {
      consider_routed(blocks, costs);
    } catch (const InfeasibleError&) {
    }
    consider_remat(blocks, costs);
  };

  const int max_blocks = std::min<int>(
      options_.max_blocks, static_cast<int>(cut_points_.size()) - 1);

  const auto enumerate_blockings = [&](int lo, int hi) {
    obs::Span span("opt1.enumerate", "search");
    span.arg("lo", lo);
    span.arg("hi", hi);
    std::set<std::vector<int>> seen;
    for (int k = lo; k <= hi; ++k) {
      balanced_boundaries(k, serial_lane.boundaries);
      if (!seen.insert(serial_lane.boundaries).second) continue;
      blocks_from_boundaries(serial_lane.boundaries, serial_lane.blocks);
      consider_blocking(serial_lane.blocks);
    }
  };

  if (seed_blocks && seed_tiles_model(model_, *seed_blocks, *seed_policies)) {
    // ---- Warm start (calib::repair): the cached plan is the incumbent.
    warm_started = true;
    consider(*seed_blocks, block_costs(serial_lane, *seed_blocks),
             *seed_policies);
    // Re-route the seed blocking under THIS planner's (possibly
    // recalibrated) cost model — the cheapest place a changed table can
    // flip a block's swap/recompute/tier decision.
    consider_blocking(*seed_blocks);
    // A small block-count neighborhood instead of the full k scan: cost
    // drift rarely moves the optimal count far, and the anneal below can
    // still slide every boundary the drift did move.
    const int seed_k = static_cast<int>(seed_blocks->size());
    enumerate_blockings(std::max(options_.min_blocks, seed_k - 2),
                        std::min(max_blocks, seed_k + 2));
    // Coarse probes across the rest of the count range guard against a
    // REGIME shift the neighborhood cannot see: a table that re-prices
    // swap vs recompute can move the optimum to a structurally different
    // blocking (e.g. many fine-grained swapped blocks instead of a few
    // recomputed ones). One candidate every kProbeStride counts keeps
    // this a fraction of the cold enumeration; if a probe takes the
    // incumbency, its own neighborhood is refined like the seed's was.
    constexpr int kProbeStride = 4;
    int best_probe_k = -1;
    obs::Span probe_span("repair.probe", "search");
    probe_span.arg("stride", kProbeStride);
    for (int k = options_.min_blocks; k <= max_blocks; k += kProbeStride) {
      if (k >= seed_k - 2 && k <= seed_k + 2) continue;  // already scanned
      bool improved = false;
      try {
        // A probe whose routing is infeasible skips its remat corner too.
        balanced_boundaries(k, serial_lane.boundaries);
        blocks_from_boundaries(serial_lane.boundaries, serial_lane.blocks);
        const auto& blocks = serial_lane.blocks;
        const auto& costs = block_costs(serial_lane, blocks);
        improved = consider_routed(blocks, costs);
        improved = consider_remat(blocks, costs) || improved;
      } catch (const InfeasibleError&) {
      }
      if (improved) best_probe_k = k;
    }
    probe_span.end();
    if (best_probe_k >= 0)
      enumerate_blockings(std::max(options_.min_blocks, best_probe_k - 2),
                          std::min(max_blocks, best_probe_k + 2));
  }
  if (!best) {
    // ---- Opt-1: enumerate block counts over clean cut points. ----
    // (Also the warm-start fallback: an infeasible seed — e.g. a plan
    // cached for a different capacity — degrades to the full cold search
    // rather than failing where plan() would succeed.)
    warm_started = false;
    enumerate_blockings(options_.min_blocks, max_blocks);
  }
  if (!best)
    throw std::runtime_error(
        "KarmaPlanner: no feasible blocking for model '" + model_.name() +
        "' on device " + device_.name);

  // ---- Opt-1 refinement: portfolio anneal of boundary positions (the
  // MIDACO stand-in, parallelized lazy-SMP style — DESIGN.md §14). ----
  if (options_.anneal_iterations > 0 && best->schedule.blocks.size() > 2) {
    Rng rng(options_.seed);
    std::vector<int> init_cuts;
    init_cuts.push_back(0);
    for (const auto& b : best->schedule.blocks)
      init_cuts.push_back(b.last_layer);

    const int workers = std::max(1, options_.anneal_workers);
    anneal_workers_used = workers;
    obs::Span anneal_span("opt1.anneal", "search");
    anneal_span.arg("workers", workers);
    anneal_span.arg("iterations", options_.anneal_iterations);
    const std::function<double(const std::vector<int>&, int)> energy =
        [&](const std::vector<int>& cuts, int w) {
          SearchLane& lane = lanes[static_cast<std::size_t>(w)];
          blocks_from_boundaries(cuts, lane.blocks);
          const auto& costs = block_costs(lane, lane.blocks);
          try {
            const auto& policies = initial_policies(lane, lane.blocks, costs);
            return step.score(lane.blocks, policies, lane.key, [&] {
              return score(lane, lane.blocks, costs, policies, strategy);
            });
          } catch (const InfeasibleError&) {
            return CandidateStep::kInfeasible;  // no spill route here
          }
        };
    const std::function<std::vector<int>(const std::vector<int>&, Rng&)>
        neighbor = [&](const std::vector<int>& cuts, Rng& r) {
          // Move one interior boundary to an adjacent clean cut point.
          auto next = cuts;
          if (next.size() <= 2) return next;
          const std::size_t pick =
              1 + static_cast<std::size_t>(r.next_below(next.size() - 2));
          const auto it = std::lower_bound(cut_points_.begin(),
                                           cut_points_.end(), next[pick]);
          const bool up = r.next_below(2) == 1;
          if (up && it + 1 != cut_points_.end())
            next[pick] = *(it + 1);
          else if (!up && it != cut_points_.begin())
            next[pick] = *(it - 1);
          // Keep strictly increasing; otherwise return unchanged.
          for (std::size_t i = 1; i < next.size(); ++i)
            if (next[i] <= next[i - 1]) {
              next[pick] = cuts[pick];
              break;
            }
          return next;
        };
    // The documented stable-reduction key: the boundary vector rendered
    // as text, compared lexicographically.
    const std::function<std::string(const std::vector<int>&)> reduce_key =
        [](const std::vector<int>& cuts) {
          std::string key;
          for (const int c : cuts) {
            key += std::to_string(c);
            key += ',';
          }
          return key;
        };
    // The per-worker trace hook: both callbacks run on the walk's own
    // thread, so the emitted slice lands on that thread's trace track (one
    // "anneal.worker" slice per portfolio member).
    std::vector<std::uint64_t> worker_trace_start(
        static_cast<std::size_t>(workers), 0);
    const std::function<void(int, bool)> trace_worker =
        [&worker_trace_start](int w, bool starting) {
          if (!obs::tracing_enabled()) return;
          std::uint64_t& start =
              worker_trace_start[static_cast<std::size_t>(w)];
          if (starting)
            start = obs::trace_now_us();
          else
            obs::emit_complete("anneal.worker", "search", start,
                               obs::trace_now_us(), "worker", w);
        };
    solver::AnnealParams params;
    params.iterations = options_.anneal_iterations;
    params.initial_temperature = best->iteration_time * 0.05;
    // Belt to the candidate step's token poll: a tripped token also
    // truncates each walk between iterations (e.g. during runs of
    // rejected no-op moves that never call the energy at all).
    if (control.valid())
      params.should_stop = [&control] { return control.should_stop(); };
    const auto reduced = solver::portfolio_anneal<std::vector<int>>(
        init_cuts, energy, neighbor, params, workers, rng, reduce_key,
        trace_worker);
    blocks_from_boundaries(reduced.state, serial_lane.blocks);
    try {
      consider_routed(serial_lane.blocks,
                      block_costs(serial_lane, serial_lane.blocks));
    } catch (const InfeasibleError&) {
    }
  }

  // ---- Opt-2: greedy recompute interleave (constraint 10.1). ----
  if (options_.enable_recompute) {
    obs::Span span("opt2.flips", "search");
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t b = 0; b < best->policies.size(); ++b) {
        // Constraint 10.1 pre-filter.
        if (!recompute_beats_swap_in(device_, best->schedule.costs[b],
                                     best->policies[b]))
          continue;
        std::vector<BlockPolicy>& policies = serial_lane.policies;
        policies = best->policies;
        policies[b] = BlockPolicy::kRecompute;
        // After an accepted flip the outer loop restarts, re-trying every
        // flip it already scored against the same base — those repeats
        // are memo hits inside consider(), not fresh replays.
        if (consider(best->schedule.blocks, best->schedule.costs, policies))
          improved = true;
      }
    }
  }
  SearchStats stats;
  for (const SearchLane& lane : lanes) {
    stats.block_cost_lookups += lane.lookups;
    stats.block_cost_hits += lane.hits;
  }
  stats.anneal_workers = anneal_workers_used;
  stats.warm_started = warm_started;
  return step.finish(stats);
}

}  // namespace karma::core
