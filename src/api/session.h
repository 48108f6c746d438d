// karma::api — the planning request, the plan artifact and the async
// handle (DESIGN.md §8, §11).
//
// The paper's workflow is a single pipeline: profile a model, solve Opt-1
// (blocking) and Opt-2 (recompute interleave), then execute the blocked
// schedule. The API exposes it as a single request/artifact exchange:
//
//   PlanRequest  — model + device/storage hierarchy + optional distributed
//                  options + optimizer model + planner knobs + search
//                  limits (deadline / candidate budget);
//   Engine::plan(request)       -> Expected<Plan, PlanError>
//   Engine::plan_async(request) -> PlanFuture (wait/get/cancel/progress)
//   Plan         — the search layers' one core::PlanResult plus its
//                  provenance (model, batch, device, host reserve) and,
//                  for a fleet, the placement; with simulate() (engine
//                  replay), to_json()/from_json() (deterministic
//                  round-trip, plan caching), and bind_executor() (derives
//                  OocExecutor blocks + per-tier policies from planner
//                  output).
//
// The planning handle is a std::shared_ptr<karma::api::Engine>
// (src/api/engine.h) — the process-wide planning service that owns the
// worker pool and ONE shared plan cache. Callers sharing an Engine are its
// tenants: their identical concurrent requests collapse into a single
// search (single-flight), and every tenant's plans warm the shared cache.
// For cross-process sharing, RemoteSession (src/api/remote_session.h)
// plans through the node's karma-pland daemon with the same surface.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/api/errors.h"
#include "src/core/distributed.h"
#include "src/core/planner.h"
#include "src/place/fleet.h"
#include "src/place/placement.h"
#include "src/train/ooc_exec.h"

namespace karma::api {

class Engine;
namespace detail {
struct FutureState;
}  // namespace detail

/// Optimizer state model. CPU-side updates (pipeline stage 5) keep master
/// weights and optimizer moments pinned in host DRAM for the whole run;
/// that residency competes with swapped activations for the same tier, so
/// the planner pre-charges it into per-tier admission (route_spills'
/// `reserved_host`) instead of discovering the conflict at run time.
struct OptimizerSpec {
  enum class Kind { kNone, kSgd, kSgdMomentum, kAdam };
  Kind kind = Kind::kNone;
  /// State is host-resident (the paper's CPU-update regime). Device-side
  /// optimizers would charge HBM instead; not modeled yet.
  bool host_resident = true;
  /// Override for exotic optimizers: host bytes per parameter byte. < 0
  /// derives from `kind` (none 0, SGD 1 master copy, +1 momentum, Adam 3).
  double state_bytes_per_param_byte = -1.0;

  double state_multiplier() const;
  /// Host-pinned bytes for `param_bytes` of model parameters.
  Bytes host_state_bytes(Bytes param_bytes) const;
};

/// Everything Engine::plan needs, as one value. Copyable; the model is
/// held by value so requests can outlive the scope that built them.
struct PlanRequest {
  graph::Model model{"(unset)"};
  sim::DeviceSpec device;
  core::PlannerOptions planner;
  /// Host-pinned optimizer state, charged into per-tier admission. The
  /// charge ADDS to any planner.schedule.reserved_host_bytes the caller
  /// set directly (distinct host-pinning consumers compose).
  OptimizerSpec optimizer;
  /// Set to plan the 5-stage data-parallel pipeline instead of single-GPU.
  /// Note: the PlannerOptions copy embedded in DistributedOptions is
  /// superseded by `planner` above (plus the optimizer reserve) — the
  /// facade has exactly one set of planner knobs.
  std::optional<core::DistributedOptions> distributed;
  /// Set to plan a HETEROGENEOUS fleet (DESIGN.md §16): the device above
  /// is ignored as a compute target (each FleetNode carries its own), a
  /// cost-based shard placement decides per-node ownership, and every
  /// node gets its own blocking/policy search. Mutually exclusive with
  /// `distributed` — symmetric data parallelism is the distributed path.
  std::optional<place::FleetSpec> fleet;
  /// On infeasibility, bisect the batch size to report the nearest batch
  /// that *would* plan (PlanError::nearest_feasible_batch). Costs a few
  /// extra planner runs on the error path only.
  bool probe_feasible_batch = true;

  /// Bounds on the search effort spent on THIS caller's behalf. Like
  /// probe_feasible_batch, limits are excluded from the cache fingerprint:
  /// they never change the artifact a completed search produces (the
  /// search is deterministic; a limit only decides whether it finishes),
  /// so a deadline-bounded request still hits cache entries written by
  /// unbounded ones. A search stopped by a limit returns
  /// PlanError{kDeadline} with the best-so-far feasible plan attached
  /// (PlanError::partial) and is never cached. Under single-flight, one
  /// waiter's limits never truncate another's search: the shared search
  /// keeps running while any interested waiter remains unbounded (or has
  /// the latest deadline / largest budget).
  struct SearchLimits {
    /// Wall-clock budget in seconds, measured from submission; <= 0 =
    /// unbounded.
    Seconds deadline = 0;
    /// Candidate-evaluation budget (memo hits included); <= 0 = unbounded.
    std::int64_t max_candidates = 0;
  };
  SearchLimits limits;
};

/// The unified plan artifact: the search result (core::PlanResult) plus
/// provenance, the fleet placement, executor binding and I/O. The JSON
/// schema (DESIGN.md §8) carries the trace's scalar metrics (makespan,
/// occupancy, peaks) but neither its per-op records nor search_stats, so
/// a disk-loaded plan has an otherwise empty trace (simulate() rebuilds
/// it) and zero search_stats; a memory-cache hit keeps the original
/// run's.
struct Plan : core::PlanResult {
  // ---- Provenance ----
  std::string model_name;
  std::int64_t batch = 0;        ///< leading batch dim of the planned model
  std::int64_t model_layers = 0; ///< layer count the block ranges index into
  sim::DeviceSpec device;
  Bytes reserved_host_bytes = 0; ///< optimizer pre-charge used in admission

  /// Only data-parallel ranks and fleet nodes carry a gradient exchange,
  /// so the exchange is what makes a plan distributed.
  bool distributed() const { return exchange.has_value(); }

  // ---- Fleet extras (set when the request carried a FleetSpec) ----
  /// The shard-ownership placement plus the per-node straggler roll-up.
  /// The inherited search result describes the STRAGGLER node (its
  /// device, schedule, trace), so simulate() reproduces the binding rank;
  /// iteration_time is the fleet max including exchange + update tails.
  std::optional<place::PlacementPlan> placement;

  const std::vector<sim::Block>& blocks() const { return schedule.blocks; }

  /// Replays the schedule on a fresh engine. Deterministic: equal plans
  /// (e.g. after a JSON round-trip) reproduce the same makespan exactly.
  sim::ExecutionTrace simulate() const;

  /// Deterministic JSON serialization (schema in DESIGN.md §8). Doubles
  /// are printed with 17 significant digits so from_json(to_json(p))
  /// round-trips bit-exactly.
  std::string to_json() const;
  static Expected<Plan, PlanError> from_json(const std::string& json);

  /// Projects the planner's blocking + policies onto a Sequential with
  /// `num_layers` layers: boundaries scale proportionally (identity when
  /// the layer counts match), per-block tier policies carry over. Blocks
  /// that collapse to zero layers are dropped.
  std::vector<train::OocBlock> derive_ooc_blocks(std::size_t num_layers) const;

  /// Binds the plan to a real network: derives the OocBlock partition from
  /// planner output and constructs the executor with the same per-tier
  /// routing the planner chose — the planner->executor bridge, no hand
  /// assembly. `pool_capacity` bounds retained activations on the numeric
  /// twin's device pool; `host_capacity` bounds its host store (0 =
  /// unbounded, the seed model). The plan's host pre-charges (optimizer
  /// reserve + pinned shard baseline) are pinned into the executor's host
  /// store, so the twin honors the same bounded-DRAM admission the
  /// planner used. Throws std::invalid_argument when the net is empty or
  /// the plan is distributed (no executor semantics yet).
  train::OocExecutor bind_executor(train::Sequential* net,
                                   Bytes pool_capacity,
                                   Bytes host_capacity = 0) const;
};

/// Cache behavior of an Engine (DESIGN.md §10, §11). Planning is pure —
/// requests are values, plans are deterministic serializable artifacts —
/// so plan() is memoizable by content: requests are fingerprinted
/// (cache::RequestKey), answered from an in-memory LRU of outcomes (plans
/// and infeasibility diagnoses), then from an optional on-disk store whose
/// entries are the v2 plan JSON artifacts. A cache that remembers nothing
/// — every plan() runs the full search — is cache_memory_bytes = 0 with
/// an empty cache_dir and no KARMA_CACHE_DIR.
struct CacheOptions {
  /// Max resident bytes of the in-memory outcomes, each counted as its
  /// serialized size (a plan's to_json, a diagnosis's error_to_json) —
  /// capacity is what entries actually weigh, not how many there are.
  /// An entry holds its outcome; one that karma-pland's socket hits serve
  /// also holds those bytes, memoized by the first hit, which this bound
  /// does not count again (DESIGN.md §10). 0 = no memory level.
  Bytes cache_memory_bytes = 256ll * 1024 * 1024;
  /// Directory of the persistent plan store. Empty = use the
  /// KARMA_CACHE_DIR environment variable when set, otherwise cache in
  /// memory only. (Keep shared cache dirs under the build tree — they
  /// are generated artifacts; see .gitignore.)
  std::string cache_dir;
  /// Path of a calib::CalibrationTable JSON installed at Engine
  /// construction (DESIGN.md §13). Empty = load
  /// $KARMA_CALIB_DIR/calibration.json when that file exists, else run
  /// uncalibrated (the analytic cost model). An explicit path that cannot
  /// be read or parsed throws from Engine::create — a requested
  /// calibration silently ignored would be worse than failing loudly; the
  /// env-derived default only warns on a corrupt file.
  std::string calibration_path;
};

/// Live view of an asynchronous plan's search, readable at any time
/// (PlanFuture::progress). Counters come straight from the running
/// search's CancelToken; cache activity is engine-wide
/// (Engine::cache_stats) rather than per-request.
struct PlanProgress {
  std::int64_t candidates = 0;   ///< candidate evaluations so far
  std::int64_t simulations = 0;  ///< full engine replays among them
  std::int64_t memo_hits = 0;    ///< served by the Opt-1/Opt-2 memo
  /// Best simulated iteration time found so far; +inf until the first
  /// feasible candidate.
  double best_cost = 0.0;
  bool has_best = false;  ///< best_cost is a real feasible candidate
  bool done = false;      ///< the future would return without blocking
};

/// Handle onto one asynchronous plan() — Engine::plan_async's return.
/// Copyable; copies observe (and cancel) the same submission. Destroying
/// every copy without get() withdraws the caller's interest, exactly like
/// cancel(): a single-flight search with no interested waiters left is
/// cancelled rather than burning the pool on a result nobody wants.
class PlanFuture {
 public:
  PlanFuture() = default;  ///< invalid (valid() == false)

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the outcome is available: the search finished, this
  /// caller's deadline (PlanRequest::limits) expired, or cancel() was
  /// called from another thread.
  void wait() const;

  /// wait() bounded by `timeout` seconds; returns whether the outcome is
  /// available (false = still running and within this caller's limits).
  bool wait_for(Seconds timeout) const;

  /// wait(), then the outcome. A deadline expiry yields
  /// PlanError{kDeadline} and a cancel PlanError{kCancelled}, either with
  /// the search's best-so-far feasible plan attached
  /// (PlanError::partial) when one existed. Idempotent — repeated calls
  /// return the same outcome.
  Expected<Plan, PlanError> get() const;

  /// Withdraws this caller's interest and settles the future with
  /// PlanError{kCancelled} (no-op once the outcome is available). The
  /// underlying search keeps running while OTHER waiters remain
  /// interested — one tenant's cancel never poisons another's plan — and
  /// is cooperatively cancelled when the last waiter leaves.
  void cancel() const;

  /// Snapshot of the running search (done futures report final counts).
  PlanProgress progress() const;

 private:
  friend class Engine;
  explicit PlanFuture(std::shared_ptr<detail::FutureState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::FutureState> state_;
};

}  // namespace karma::api
