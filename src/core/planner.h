// KARMA's two-tier optimization (paper Fig. 4) and planner facade.
//
// Optimization problem 1 (blocking): find the partition of layers into
// contiguous blocks that maximizes occupancy subject to the memory
// capacity constraint. The paper solves an ILP with MIDACO; the instances
// are small (it converges "in under four minutes"), so we enumerate
// candidate partitions over clean cut points (positions no skip edge
// crosses), rank them by *actual simulated makespan* — the engine is the
// objective, which is strictly more faithful than a linear surrogate —
// and refine with simulated annealing (DESIGN.md §2).
//
// Optimization problem 2 (recompute interleave): starting from the
// capacity-based policy assignment, greedily flip swapped blocks to
// recompute when constraint (10.1) holds and the flip reduces the
// simulated makespan (stall reduction, Sec. III-F).
//
// Tiered offload (DESIGN.md §7): when the device models a bounded host
// or an NVMe tier, the per-block vocabulary is tier-qualified —
// {resident, swap(host), swap(nvme), recompute} — with spill routing by
// tier::route_spills and placements still chosen by simulated makespan.
// Seed devices (unbounded host) plan bit-identically to the original
// two-tier search.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/core/schedule_gen.h"
#include "src/net/phased_exchange.h"
#include "src/sim/engine.h"
#include "src/util/cancel.h"

namespace karma::core {

/// Thrown by the planners when a cooperative CancelToken stops the search
/// (cancel / deadline / candidate budget) before it ran to completion.
/// Deliberately NOT derived from std::exception: the planners' documented
/// infeasibility channel is karma::InfeasibleError (a runtime_error), and
/// the infeasible-candidate handlers in the search catch exactly that — an
/// interrupt must tunnel through all of them (and through any legacy
/// std::exception handler between here and the service layer), which
/// converts it into PlanError{kCancelled|kDeadline} with the best-so-far
/// plan attached (published incrementally via the on_improved callback).
struct SearchInterrupted {
  StopReason reason = StopReason::kCancelled;
};

/// The widest anneal portfolio a request may ask for.
inline constexpr int kMaxAnnealWorkers = 64;

struct PlannerOptions {
  bool enable_recompute = true;  ///< false = pure capacity-based KARMA
  int min_blocks = 2;
  int max_blocks = 48;
  int anneal_iterations = 120;   ///< boundary-refinement budget
  /// Portfolio width of the boundary anneal (DESIGN.md §14): this many
  /// lazy-SMP workers split anneal_iterations between them, diversified
  /// by rng stream and temperature, reduced with the stable (energy, key)
  /// tie-break. Plan-affecting (it reshapes the explored walk), so it is
  /// part of the request fingerprint. 1 = one serial walk; <= 0 means 1.
  /// Each worker is a thread, so api::Engine rejects requests above
  /// kMaxAnnealWorkers.
  int anneal_workers = 4;
  std::uint64_t seed = 0x5eed;
  ScheduleOptions schedule;
};

/// Search-effort accounting for one KarmaPlanner::plan() run (DESIGN.md
/// §10). Pre-memoization, every candidate the Opt-1/Opt-2 searches looked
/// at was a full engine replay (simulations == candidates); with the
/// candidate memo and the per-block cost memo, revisited candidates cost
/// a hash lookup and a blocking costs its blocks once per lane. The
/// counters make that win measurable (bench_fig_plan_cache prints them
/// cold vs warm).
struct SearchStats {
  std::int64_t candidates = 0;         ///< candidate evaluations requested
  /// Candidates scored by a makespan-only engine replay. Materializing a
  /// new incumbent (a second, full replay that builds the plan's trace) is
  /// not a candidate simulation and is not counted here.
  std::int64_t simulations = 0;
  /// Candidates served by the memo with no replay at all, so
  /// candidates == simulations + memo_hits holds by construction.
  std::int64_t memo_hits = 0;
  std::int64_t block_cost_lookups = 0; ///< per-block cost requests
  std::int64_t block_cost_hits = 0;    ///< served by the block-cost memo
  /// Always 0: every candidate replays from op 0 (DESIGN.md §14). Kept
  /// because plannerbench/src/main.cpp still reads it.
  std::int64_t incremental_resumes = 0;
  /// Portfolio width the boundary anneal actually ran with.
  int anneal_workers = 0;
  /// True when the search was seeded from an existing plan (plan_from —
  /// the calib::repair path) instead of the full Opt-1 enumeration.
  bool warm_started = false;
  /// Wall-clock of the whole search. Observability only: timing never
  /// feeds a search decision, so plans stay deterministic.
  double search_seconds = 0.0;
};

/// The one result every search layer returns: KarmaPlanner, the
/// data-parallel pipeline (plan_data_parallel), each fleet node's search
/// (place::plan_fleet) and calib::repair. api::Plan extends it with
/// provenance. The blocking is schedule.blocks.
struct PlanResult {
  sim::Plan schedule;              ///< the Plan IR: blocks, costs, ops
  std::vector<BlockPolicy> policies;
  sim::ExecutionTrace trace;       ///< trace of the chosen plan
  Seconds iteration_time = 0.0;    ///< steady state (single-GPU: makespan)
  /// = iteration_time for single-GPU plans; the data-parallel pipeline
  /// reports its first iteration, which has no update running into it.
  Seconds first_iteration_time = 0.0;
  double occupancy = 0.0;
  /// False when the data-parallel pipeline swaps weights per block.
  bool weights_resident = true;
  /// The gradient exchange of a data-parallel rank or fleet node; unset
  /// for single-GPU plans.
  std::optional<net::ExchangePlan> exchange;
  SearchStats search_stats;        ///< effort of the search that found it
};

/// Positions at which a block boundary does not cut any skip connection
/// (only the chain edge crosses). Always includes 0 and num_layers.
std::vector<int> clean_cut_points(const graph::Model& model);

/// Cut positions the planner actually searches over: the clean cuts when
/// they are dense enough, otherwise every position. Models like U-Net have
/// nested contracting->expansive skips that leave almost no clean cuts;
/// for those, boundaries may cross skip edges and the Sec. III-F.4 policy
/// rule (blocks with outgoing long skips are recomputed or kept resident,
/// never swapped out early) preserves the dependency instead.
std::vector<int> candidate_cut_points(const graph::Model& model);

/// The contiguous blocks between consecutive `boundaries`: {b0, b1},
/// {b1, b2}, ...; empty when there are fewer than two boundaries.
std::vector<sim::Block> blocks_from_boundaries(
    const std::vector<int>& boundaries);
/// The same blocks, written into `blocks` (its buffer is reused).
void blocks_from_boundaries(const std::vector<int>& boundaries,
                            std::vector<sim::Block>& blocks);

/// Boundaries for `k` blocks spread evenly over `cuts` by index, first and
/// last cut included. A cut picked twice appears once, so fewer than
/// k + 1 boundaries come back when `cuts` has fewer than k + 1 entries.
std::vector<int> uniform_boundaries(const std::vector<int>& cuts, int k);

/// True when `blocks` tile [0, model.num_layers()) contiguously with
/// non-empty blocks and `policies` holds one policy per block: what a plan
/// must satisfy to seed KarmaPlanner::plan_from for `model`.
bool seed_tiles_model(const graph::Model& model,
                      const std::vector<sim::Block>& blocks,
                      const std::vector<BlockPolicy>& policies);

/// The search's candidate memo key, written into `key` (its buffer is
/// reused): each block's last layer as a 4-byte word, then one byte per
/// policy. Candidate blockings tile the model from layer 0, so the last
/// layers fix the blocking, and the key's length fixes the block count:
/// distinct candidates get distinct keys.
void pack_candidate_key(const std::vector<sim::Block>& blocks,
                        const std::vector<BlockPolicy>& policies,
                        std::string& key);

class KarmaPlanner {
 public:
  KarmaPlanner(const graph::Model& model, sim::DeviceSpec device,
               PlannerOptions options = {});

  /// Runs Opt-1 (+ Opt-2 when enabled) and returns the best plan found.
  /// Throws std::runtime_error if no feasible plan exists (e.g. one layer
  /// alone exceeds device memory).
  ///
  /// api::Engine wraps this search behind the PlanRequest -> Plan artifact
  /// facade with structured PlanError diagnostics instead of exceptions;
  /// the baselines' KARMA rows, fleet legs and calib::repair call it
  /// directly.
  ///
  /// Memoized: per-block table costs and reaches (keyed by block extent) and
  /// whole-candidate makespans (keyed by blocking + tier-routed policy
  /// vector) are cached for the duration of the call, so the annealer's
  /// revisits and Opt-2's repeated greedy rounds skip re-simulation —
  /// exactly, never approximately: memo values are the deterministic
  /// evaluation results, so the chosen plan is bit-identical to the
  /// unmemoized search's. Each call owns its memos, so concurrent calls
  /// on one planner are independent.
  ///
  /// `control` (optional) makes the search cooperative: it is polled at
  /// every candidate boundary — the Opt-1 enumeration, each anneal step,
  /// each Opt-2 flip — and progress (candidates / simulations / memo hits
  /// / best cost) is published through it. A tripped token raises
  /// SearchInterrupted; the plan state is untouched (fresh rng + memos per
  /// call), so a later uncancelled run is bit-identical to one that was
  /// never interrupted. `on_improved` fires on every new incumbent best —
  /// the service layer snapshots these so a cancelled or expired search
  /// can still hand back the best feasible plan it saw.
  PlanResult plan(const CancelToken& control = {},
                  const std::function<void(const PlanResult&)>& on_improved =
                      {}) const;

  /// Warm-start search — the calib::repair entry (DESIGN.md §13). Skips
  /// the full Opt-1 block-count enumeration and instead seeds the
  /// incumbent from `seed_blocks`/`seed_policies` (typically a cached plan
  /// being repaired under a recalibrated cost model), plus cheap
  /// variations: the seed re-routed by this planner's policy assignment
  /// (a perturbed table can flip a block's swap/recompute/tier decision
  /// right here), the pure-remat corner, balanced blockings within
  /// +/-2 of the seed's block count, and coarse probes across the rest
  /// of the count range (refined around any probe that takes the
  /// incumbency) so a calibration that shifts the optimum to a different
  /// blocking regime entirely is still caught. The anneal and Opt-2
  /// refinements then run exactly as in plan(). Falls back to the full
  /// cold search when the seed does not tile this model (seed_tiles_model)
  /// or nothing seeded is feasible, so plan_from never fails where plan()
  /// would succeed. Sets SearchStats::warm_started.
  PlanResult plan_from(const std::vector<sim::Block>& seed_blocks,
                       const std::vector<BlockPolicy>& seed_policies,
                       const CancelToken& control = {},
                       const std::function<void(const PlanResult&)>&
                           on_improved = {}) const;

  /// Builds + simulates one candidate (exposed for tests and ablations).
  std::optional<PlanResult> evaluate(const std::vector<sim::Block>& blocks,
                                     const std::vector<BlockPolicy>& policies,
                                     const std::string& strategy) const;

  const graph::Model& model() const { return model_; }

 private:
  /// One thread's block-extent memo and candidate-scoring buffers.
  struct SearchLane;

  /// Shared search body behind plan() and plan_from(): null seed = cold
  /// Opt-1 enumeration, non-null = warm start from the seed candidate.
  PlanResult run_search(const std::vector<sim::Block>* seed_blocks,
                        const std::vector<BlockPolicy>* seed_policies,
                        const CancelToken& control,
                        const std::function<void(const PlanResult&)>&
                            on_improved) const;
  /// Emits one candidate into `lane`'s plan and returns its makespan from
  /// a lean replay (no trace); throws karma::InfeasibleError when it
  /// cannot run (deadlock, tier overflow). `costs` are the blocks' costs.
  Seconds score(SearchLane& lane, const std::vector<sim::Block>& blocks,
                const std::vector<sim::BlockCost>& costs,
                const std::vector<BlockPolicy>& policies,
                const std::string& strategy) const;
  /// Builds + fully replays one candidate into a PlanResult with its
  /// trace; throws like score(), and reports the same makespan.
  PlanResult simulate_candidate(SearchLane& lane,
                                const std::vector<sim::Block>& blocks,
                                const std::vector<sim::BlockCost>& costs,
                                const std::vector<BlockPolicy>& policies,
                                const std::string& strategy) const;
  /// Balanced selection of `num_blocks` boundaries from the clean cut
  /// points, equalizing activation bytes per block, written into `cuts`.
  void balanced_boundaries(int num_blocks, std::vector<int>& cuts) const;
  /// The routed policies of `blocks` (route_policies) from their costs
  /// and the reaches block_costs left in `lane`, left in lane.policies
  /// (returned). Throws karma::InfeasibleError when a spill fits no tier.
  const std::vector<BlockPolicy>& initial_policies(
      SearchLane& lane, const std::vector<sim::Block>& blocks,
      const std::vector<sim::BlockCost>& costs) const;
  /// Each block's cost from `table_` and its LayerCostTable::reach, through
  /// `lane`'s extent memo, left in lane.costs (returned) and lane.reach:
  /// candidate blockings share almost all their blocks (balanced
  /// boundaries nest, the anneal moves a single boundary), so each extent
  /// is summed once per lane and routing a candidate is O(blocks).
  const std::vector<sim::BlockCost>& block_costs(
      SearchLane& lane, const std::vector<sim::Block>& blocks) const;

  const graph::Model& model_;
  sim::DeviceSpec device_;
  PlannerOptions options_;
  std::vector<int> cut_points_;
  sim::LayerCostTable table_;  ///< built once per planner
};

}  // namespace karma::core
