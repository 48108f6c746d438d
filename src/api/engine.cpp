#include "src/api/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/calib/repair.h"
#include "src/calib/table.h"
#include "src/graph/memory_model.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/place/fleet_planner.h"

namespace karma::api {

using Clock = CancelToken::Clock;

// ---------------------------------------------------------------------------
// Planning internals: request -> artifact, interruptible, with incremental
// best-so-far publication for the service layer's partial results.
// ---------------------------------------------------------------------------

namespace {

/// Leading batch dimension of the planned model (first shaped layer).
std::int64_t batch_of(const graph::Model& model) {
  for (const auto& layer : model.layers()) {
    if (layer.out_shape.rank() > 0) return layer.out_shape.batch();
    if (layer.in_shape.rank() > 0) return layer.in_shape.batch();
  }
  return 1;
}

/// Index of the finest-granularity candidate block containing `layer`.
int block_containing(const graph::Model& model, int layer) {
  const auto cuts = core::candidate_cut_points(model);
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
    if (cuts[i] <= layer && layer < cuts[i + 1]) return static_cast<int>(i);
  return -1;
}

/// The one mapping from a search result onto the artifact: `r` becomes
/// its core::PlanResult base, `request` supplies the provenance.
Plan artifact_from(const PlanRequest& request, Bytes reserved_host,
                   core::PlanResult r) {
  Plan artifact;
  static_cast<core::PlanResult&>(artifact) = std::move(r);
  artifact.model_name = request.model.name();
  artifact.batch = batch_of(request.model);
  artifact.model_layers = static_cast<std::int64_t>(request.model.num_layers());
  artifact.device = request.device;
  artifact.reserved_host_bytes = reserved_host;
  return artifact;
}

/// Runs the planners for `request` with the fully derived `options` (the
/// optimizer reserve already charged) and wraps the result in the Plan
/// artifact. Pure planning — no cache, no diagnosis: infeasibility
/// surfaces as the planners' std::runtime_error, a tripped `control` as
/// core::SearchInterrupted. `on_best` (optional) receives a full artifact
/// snapshot at every new incumbent best, so an interrupted search can
/// still hand back its best-so-far plan.
Plan plan_uncached(const PlanRequest& request,
                   const core::PlannerOptions& options, Bytes reserved_host,
                   const CancelToken& control = {},
                   const std::function<void(Plan&&)>& on_best = {},
                   const Plan* repair_seed = nullptr) {
  if (request.fleet) {
    // Heterogeneous fleet (DESIGN.md §16). `options` carries the caller's
    // reserve inflated with the WHOLE model's optimizer state — correct
    // for a symmetric rank, wrong per fleet node, where ownership decides
    // how much state each node pins. plan_fleet derives each node's
    // reserve from the base reserve plus its owned shards, so hand it
    // the un-inflated base and the optimizer's sizing function instead.
    // No incremental on_best: per-node searches compose only at the end,
    // and a half-composed fleet plan would misstate the straggler.
    place::FleetPlanOptions fleet_options;
    fleet_options.planner = options;
    fleet_options.planner.schedule.reserved_host_bytes =
        request.planner.schedule.reserved_host_bytes;
    fleet_options.placement.base_reserved_host =
        request.planner.schedule.reserved_host_bytes;
    fleet_options.placement.optimizer_state_bytes =
        [optimizer = request.optimizer](Bytes param_bytes) {
          return optimizer.host_state_bytes(param_bytes);
        };
    place::FleetPlanResult r =
        place::plan_fleet(request.model, *request.fleet, fleet_options,
                          control);
    // The scalar fields describe the STRAGGLER node (its device, schedule,
    // trace — so simulate() replays the binding rank); iteration_time is
    // the fleet max including the exposed exchange and CPU-update tails,
    // and the full per-node story rides in Plan::placement.
    const std::size_t straggler =
        static_cast<std::size_t>(r.placement.straggler);
    Plan artifact =
        artifact_from(request, r.placement.nodes[straggler].reserved_host_bytes,
                      std::move(r.nodes[straggler]));
    artifact.device = request.fleet->nodes[straggler].device;
    artifact.iteration_time = r.placement.iteration_time;
    artifact.first_iteration_time = r.placement.iteration_time;
    artifact.placement = std::move(r.placement);
    return artifact;
  }
  std::function<void(const core::PlanResult&)> publish;
  if (on_best)
    publish = [&](const core::PlanResult& r) {
      on_best(artifact_from(request, reserved_host, r));
    };
  if (request.distributed) {
    core::DistributedOptions opts = *request.distributed;
    // One set of planner knobs: request.planner (with the optimizer
    // reserve) supersedes the copy embedded in DistributedOptions.
    opts.planner = options;
    return artifact_from(request, reserved_host,
                         core::plan_data_parallel(request.model, request.device,
                                                  opts, control, publish));
  }
  // Calib repair (DESIGN.md §13): a plan cached under a superseded
  // calibration seeds a warm-start search (KarmaPlanner::plan_from) with
  // a reduced anneal budget instead of the cold Opt-1 enumeration. The
  // seed must tile this request's model; anything else degrades to the
  // cold search.
  const bool seeded =
      repair_seed && !repair_seed->distributed() &&
      core::seed_tiles_model(request.model, repair_seed->blocks(),
                             repair_seed->policies);
  core::PlannerOptions effective = options;
  if (seeded)
    effective.anneal_iterations =
        calib::repair_anneal_budget(options.anneal_iterations);
  const core::KarmaPlanner planner(request.model, request.device, effective);
  return artifact_from(
      request, reserved_host,
      seeded ? planner.plan_from(repair_seed->blocks(), repair_seed->policies,
                                 control, publish)
             : planner.plan(control, publish));
}

/// Cache context for the feasibility bisection: successful probes are
/// first-class plan artifacts, keyed and stored like any other plan, so
/// repeated diagnoses reuse intermediate candidates instead of
/// re-planning them.
struct ProbeContext {
  cache::PlanCache& cache;
  int candidates = 0;  ///< probe plans evaluated (cache hits included)
  int cache_hits = 0;  ///< probes answered by the cache
};

/// Largest batch at which `request` plans successfully, by bisection with
/// a cheap planner configuration (no annealing — feasibility, not polish).
/// Returns -1 when nothing fits or the model has no batch dimension. A
/// tripped `control` truncates the bisection (best-effort bracket so far);
/// an interrupt *inside* a probe search tunnels out as SearchInterrupted.
std::int64_t bisect_feasible_batch(const PlanRequest& request,
                                   Bytes reserved_host, ProbeContext& probe,
                                   const CancelToken& control) {
  const std::int64_t batch = batch_of(request.model);
  if (batch <= 1) return -1;
  const auto feasible = [&](std::int64_t b) {
    ++probe.candidates;
    // The probe is the same request re-batched with the anneal budget
    // zeroed — a self-consistent PlanRequest, so its cached artifact is
    // exactly what a plan() for it would produce. The optimizer reserve
    // carries over unchanged: weights are batch-independent.
    PlanRequest probe_request = request;
    probe_request.model = request.model.with_batch_size(b);
    probe_request.planner.anneal_iterations = 0;
    probe_request.probe_feasible_batch = false;
    core::PlannerOptions probe_options = probe_request.planner;
    probe_options.schedule.reserved_host_bytes = reserved_host;

    const cache::RequestKey key = cache::request_key(probe_request);
    if (const auto cached = probe.cache.lookup(key)) {
      ++probe.cache_hits;
      return cached->outcome().has_value();
    }
    try {
      probe.cache.insert(key, plan_uncached(probe_request, probe_options,
                                            reserved_host, control));
      return true;
    } catch (const std::runtime_error&) {
      // The planners' documented infeasibility channel. logic_error and
      // friends are engine/plan invariant violations — let them propagate
      // rather than counting a crashed probe as an infeasible batch.
      return false;
    }
  };
  if (control.should_stop()) return -1;
  if (!feasible(1)) return -1;
  std::int64_t lo = 1, hi = batch;  // feasible(lo), !feasible(hi)
  while (hi - lo > 1) {
    if (control.should_stop()) break;  // report the bracket reached so far
    const std::int64_t mid = lo + (hi - lo) / 2;
    (feasible(mid) ? lo : hi) = mid;
  }
  return lo;
}

/// Static feasibility analysis of an infeasible request: names the failing
/// component and quantifies per-tier shortfalls. `failure` is the
/// planners' infeasibility exception, whose text is the context; `probe`
/// supplies (and records) the cache context of the nearest-feasible-batch
/// bisection.
PlanError diagnose(const PlanRequest& request, Bytes reserved_host,
                   const std::runtime_error& failure, ProbeContext& probe,
                   const CancelToken& control) {
  const graph::Model& model = request.model;
  const sim::DeviceSpec& device = request.device;
  PlanError error;
  error.model = model.name();
  error.device = device.name;
  error.message = failure.what();

  const int n = static_cast<int>(model.num_layers());
  const graph::LayerMemory total = graph::range_memory(model, 0, n);
  const Bytes weights = total.weights + total.weight_grads;
  const Bytes capacity = device.memory_capacity;

  if (const auto* fleet =
          dynamic_cast<const place::FleetInfeasible*>(&failure)) {
    // Structured fleet infeasibility: placement already knows the binding
    // NODE and its tier shortfalls; the single-device analysis below
    // would mis-attribute the failure to request.device.
    error.code = fleet->deficits.empty() ? PlanErrorCode::kNoFeasibleBlocking
                                         : PlanErrorCode::kTierOverflow;
    error.device = fleet->node;
    for (const place::FleetDeficit& d : fleet->deficits)
      error.deficits.push_back({d.tier, d.required, d.capacity});
  } else if (request.distributed) {
    // The distributed planner swaps weights per block and splits its
    // budget differently per regime; the single-GPU residency analysis
    // below would blame an innocent layer. What *is* statically decidable
    // is the pipeline's shard residency (DESIGN.md §9): the per-rank
    // master weight shards pinned in host DRAM plus the worst case where
    // every block's gradient shard is in flight between its gradient-out
    // and its update. When that alone (plus the optimizer reserve)
    // overflows a bounded host tier, no blocking can admit — report the
    // per-tier shortfall instead of a bare search failure.
    error.code = PlanErrorCode::kNoFeasibleBlocking;
    if (device.host_capacity > 0) {
      // No blocking exists at diagnosis time, so charge the whole model
      // as one block — the lower bound of the per-block rounding every
      // candidate's admission used.
      sim::BlockCost whole;
      whole.param_bytes = total.weights;
      whole.grad_bytes = total.weight_grads;
      const core::ShardResidency shards = core::ShardResidency::from_costs(
          {whole}, request.distributed->weight_shard_fraction);
      const Bytes required = reserved_host + shards.total();
      if (required > device.host_capacity) {
        error.code = PlanErrorCode::kTierOverflow;
        error.message =
            "distributed shard residency alone exceeds host DRAM (" +
            format_bytes(shards.pinned_weight_bytes) +
            " pinned weight shards + " +
            format_bytes(shards.transient_gradient_bytes) +
            " in-flight gradients" +
            (reserved_host > 0
                 ? " + " + format_bytes(reserved_host) + " optimizer reserve"
                 : std::string()) +
            "); shrink weight_shard_fraction (more ZeRO partitioning) or "
            "provision more DRAM";
        error.deficits.push_back(
            {tier::Tier::kHost, required, device.host_capacity});
      }
    }
  } else if (weights >= capacity) {
    // The distributed planner swaps weights per block; single-GPU keeps
    // them resident, so this is a hard wall.
    error.code = PlanErrorCode::kWeightsExceedDevice;
    error.message = "resident weights + gradients alone exceed device HBM; "
                    "consider the distributed (weight-swapping) pipeline";
    error.deficits.push_back(
        {tier::Tier::kDevice, weights, capacity});
  } else {
    const Bytes act_budget = capacity - std::min(weights, capacity);
    // A layer whose activations cannot fit the budget breaks every
    // blocking: its enclosing block retains at least this much during the
    // block's backward, whether swapped, resident, or recomputed.
    int worst_layer = -1;
    Bytes worst_act = 0;
    for (const auto& layer : model.layers()) {
      const Bytes act =
          graph::layer_memory(layer, model.dtype_bytes(), {},
                              model.activation_memory_scale())
              .activations;
      if (act > act_budget && act > worst_act) {
        worst_layer = layer.id;
        worst_act = act;
      }
    }
    if (worst_layer >= 0) {
      error.code = PlanErrorCode::kLayerExceedsDevice;
      error.message = "layer '" + model.layer(worst_layer).name +
                      "' alone overflows the device activation budget";
      error.violating_layer = worst_layer;
      error.violating_block = block_containing(model, worst_layer);
      error.deficits.push_back(
          {tier::Tier::kDevice, weights + worst_act, capacity});
    } else if (device.host_capacity > 0) {
      // Bounded offload tiers: does the spill demand (plus the optimizer
      // reserve pinned in DRAM) fit the hierarchy at all?
      const Bytes spill =
          graph::offload_footprint(model, act_budget).offloaded_activations;
      const Bytes host_take =
          std::max<Bytes>(0, device.host_capacity - reserved_host);
      const Bytes overflow = std::max<Bytes>(0, spill - host_take);
      const Bytes nvme_capacity = device.has_nvme() ? device.nvme_capacity : 0;
      if (overflow > nvme_capacity) {
        error.code = PlanErrorCode::kTierOverflow;
        error.message =
            "offload demand exceeds the storage hierarchy" +
            std::string(reserved_host > 0
                            ? " (host tier pre-charged with optimizer state)"
                            : "");
        error.deficits.push_back({tier::Tier::kHost, reserved_host + spill,
                                  device.host_capacity});
        error.deficits.push_back(
            {tier::Tier::kNvme, overflow, nvme_capacity});
      } else {
        error.code = PlanErrorCode::kNoFeasibleBlocking;
      }
    } else {
      error.code = PlanErrorCode::kNoFeasibleBlocking;
    }
  }

  if (error.code == PlanErrorCode::kNoFeasibleBlocking &&
      error.message.empty())
    error.message =
        "no deadlock-free blocking found (block granularity is limited by "
        "clean cut density; see ROADMAP sub-layer blocking)";

  if (request.probe_feasible_batch) {
    error.nearest_feasible_batch =
        bisect_feasible_batch(request, reserved_host, probe, control);
    error.probe_candidates = probe.candidates;
    error.probe_cache_hits = probe.cache_hits;
  }
  return error;
}

/// Host-reserve derivation shared by every entry path: the optimizer's
/// host residency ADDS to any reserve the caller already put on the
/// planner options (distinct host-pinning consumers compose).
Bytes derive_reserved_host(const PlanRequest& request) {
  const graph::LayerMemory total = graph::range_memory(
      request.model, 0, static_cast<int>(request.model.num_layers()));
  return request.planner.schedule.reserved_host_bytes +
         request.optimizer.host_state_bytes(total.weights);
}

std::optional<PlanError> validate(const PlanRequest& request) {
  if (request.model.num_layers() == 0) {
    PlanError e;
    e.code = PlanErrorCode::kInvalidRequest;
    e.message = "request has an empty model";
    e.device = request.device.name;
    return e;
  }
  if (request.device.memory_capacity <= 0) {
    PlanError e;
    e.code = PlanErrorCode::kInvalidRequest;
    e.message = "device has no memory capacity";
    e.model = request.model.name();
    return e;
  }
  if (request.planner.anneal_workers > core::kMaxAnnealWorkers) {
    PlanError e;
    e.code = PlanErrorCode::kInvalidRequest;
    e.message = "planner.anneal_workers exceeds the cap of " +
                std::to_string(core::kMaxAnnealWorkers);
    e.model = request.model.name();
    e.device = request.device.name;
    return e;
  }
  if (request.distributed && request.distributed->num_gpus < 2) {
    PlanError e;
    e.code = PlanErrorCode::kInvalidRequest;
    e.message = "distributed planning needs num_gpus >= 2";
    e.model = request.model.name();
    e.device = request.device.name;
    return e;
  }
  if (request.fleet && request.distributed) {
    PlanError e;
    e.code = PlanErrorCode::kInvalidRequest;
    e.message =
        "fleet and distributed are mutually exclusive: a FleetSpec IS the "
        "data-parallel topology (symmetric ranks use `distributed`)";
    e.model = request.model.name();
    e.device = request.device.name;
    return e;
  }
  if (request.fleet) {
    const std::string why = place::validate_fleet(*request.fleet);
    if (!why.empty()) {
      PlanError e;
      e.code = PlanErrorCode::kInvalidRequest;
      e.message = "invalid fleet: " + why;
      e.model = request.model.name();
      return e;
    }
  }
  return std::nullopt;
}

/// The structured outcome of an interrupted search of `model` on `device`
/// for one waiter.
PlanError interrupted_error(StopReason reason, const std::string& model,
                            const std::string& device) {
  PlanError e;
  e.code = reason == StopReason::kCancelled ? PlanErrorCode::kCancelled
                                            : PlanErrorCode::kDeadline;
  e.model = model;
  e.device = device;
  switch (reason) {
    case StopReason::kCancelled:
      e.message = "search cancelled before completion";
      break;
    case StopReason::kDeadline:
      e.message = "search deadline expired before completion";
      break;
    case StopReason::kBudget:
      e.message = "candidate budget exhausted before completion";
      break;
    case StopReason::kNone:
      e.message = "search interrupted";
      break;
  }
  return e;
}

}  // namespace

// ---------------------------------------------------------------------------
// Flight + future state
// ---------------------------------------------------------------------------

namespace detail {

using Outcome = Expected<Plan, PlanError>;

/// One in-flight search shared by every waiter with the same RequestKey.
/// All mutable fields are guarded by `mu`; the CancelToken's own state is
/// atomic and is the only channel the search thread reads.
struct Flight {
  cache::RequestKey key;
  /// The request the search reads, content-identical for every waiter (by
  /// key). A flight owns a copy when a worker runs it (plan_async) or a
  /// calibration overlay changed its device. A synchronous leader's
  /// flight instead points at the leader's own request: the leader runs
  /// the search on its thread, and run_flight drops the pointer before
  /// the leader returns. Read and reset only by the search's thread.
  std::shared_ptr<const PlanRequest> request;
  /// What a waiter's interrupt outcome names; a waiter can settle while
  /// the search runs, so these are the flight's own copies.
  std::string model_name;
  std::string device_name;
  core::PlannerOptions planner_options;  ///< reserve already charged
  Bytes reserved_host = 0;
  /// OR over the waiting set's probe_feasible_batch (the knob is excluded
  /// from RequestKey, so waiters of one flight may disagree): like
  /// limits, the flight honors the most demanding subscriber — anyone
  /// asking for the bisection gets it. Guarded by `mu`.
  bool want_probe = false;

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  /// The last waiter left and the search was cancelled outright. Sticky
  /// (CancelToken::cancel has no undo): new arrivals must NOT join an
  /// abandoned flight — they would inherit a kCancelled outcome they
  /// never asked for — and start a fresh one instead.
  bool abandoned = false;
  std::shared_ptr<const Outcome> outcome;
  CancelToken control = CancelToken::make();
  std::shared_ptr<const Plan> best;  ///< best-so-far artifact snapshot
  /// Warm-start seed for calib repair: the same request's artifact cached
  /// under a superseded calibration hash (DESIGN.md §13). Set once at
  /// flight creation (immutable afterwards), null for cold searches.
  std::shared_ptr<const Plan> repair_seed;

  // Interest registry: the search's effective deadline and candidate
  // budget are the LOOSEST over registered waiters — a service must not
  // let one impatient tenant truncate another's search. When the last
  // waiter leaves, the search is cancelled outright.
  int interested = 0;
  int unbounded_deadline = 0;
  std::multiset<Clock::time_point> deadlines;
  int unbounded_budget = 0;
  /// ABSOLUTE candidate-count thresholds (join-time count + the waiter's
  /// budget), not raw budgets: a budget meters candidates on the
  /// waiter's watch, so the loosest effective limit is the largest
  /// threshold — mixing in raw budgets would hand late joiners an expiry
  /// they never subscribed to.
  std::multiset<std::int64_t> budget_thresholds;

  static constexpr std::int64_t kUnboundedThreshold =
      std::numeric_limits<std::int64_t>::max();

  void refresh_limits_locked() {
    control.set_deadline(unbounded_deadline > 0 || deadlines.empty()
                             ? Clock::time_point::max()
                             : *deadlines.rbegin());
    control.set_max_candidates(
        unbounded_budget > 0 || budget_thresholds.empty()
            ? 0
            : *budget_thresholds.rbegin());
  }

  /// Returns the waiter's absolute budget threshold (kUnboundedThreshold
  /// when `max_candidates` <= 0) — the caller keeps it for deregistration
  /// and for its own waiter-local budget check.
  std::int64_t register_waiter_locked(Clock::time_point deadline,
                                      std::int64_t max_candidates) {
    ++interested;
    if (deadline == Clock::time_point::max())
      ++unbounded_deadline;
    else
      deadlines.insert(deadline);
    std::int64_t threshold = kUnboundedThreshold;
    const std::int64_t counted = control.candidates();
    if (max_candidates <= 0 ||
        max_candidates > kUnboundedThreshold - counted) {
      // <= 0 is the documented unbounded; a budget so large the absolute
      // threshold would overflow is treated the same (saturate, don't
      // wrap into an instant expiry).
      ++unbounded_budget;
    } else {
      threshold = counted + max_candidates;
      budget_thresholds.insert(threshold);
    }
    refresh_limits_locked();
    return threshold;
  }

  void deregister_waiter_locked(Clock::time_point deadline,
                                std::int64_t budget_threshold) {
    --interested;
    if (deadline == Clock::time_point::max()) {
      --unbounded_deadline;
    } else {
      const auto it = deadlines.find(deadline);
      if (it != deadlines.end()) deadlines.erase(it);
    }
    if (budget_threshold == kUnboundedThreshold) {
      --unbounded_budget;
    } else {
      const auto it = budget_thresholds.find(budget_threshold);
      if (it != budget_thresholds.end()) budget_thresholds.erase(it);
    }
    if (interested == 0 && !done) {
      abandoned = true;
      control.cancel();  // nobody wants the result: stop the search
    } else {
      refresh_limits_locked();
    }
  }
};

/// Per-caller view of one submission. When `flight` is null the outcome
/// was settled at submission (cache hit / invalid request) and is
/// immutable; otherwise `outcome` (the caller-local settlement: cancel or
/// deadline) and `registered` are guarded by flight->mu.
struct FutureState {
  std::shared_ptr<Engine> engine;  ///< keeps the service alive
  std::shared_ptr<Flight> flight;
  Clock::time_point deadline = Clock::time_point::max();  ///< this caller's
  /// Absolute candidate threshold from Flight::register_waiter_locked
  /// (join-time count + this caller's budget; kUnboundedThreshold =
  /// none): the budget meters candidates evaluated ON THIS CALLER'S
  /// WATCH, so joining a long-running flight doesn't charge it for
  /// effort it never asked for.
  std::int64_t budget_threshold = Flight::kUnboundedThreshold;
  bool registered = false;
  std::shared_ptr<const Outcome> outcome;
  /// Engine-level waiter-outcome counters (registry instruments, stable
  /// for the engine's lifetime, which `engine` pins); lets the wait path
  /// count without reaching into Engine's private impl.
  obs::Counter* deadline_counter = nullptr;
  obs::Counter* cancelled_counter = nullptr;

  ~FutureState() {
    if (!flight) return;
    std::lock_guard<std::mutex> lock(flight->mu);
    if (registered) {
      registered = false;
      // Dropping every handle without get() is an implicit cancel of this
      // caller's interest; the flight keeps running for the others.
      flight->deregister_waiter_locked(deadline, budget_threshold);
    }
  }
};

}  // namespace detail

using detail::Flight;
using detail::FutureState;
using detail::Outcome;

namespace {

/// A cache entry's outcome as a settled outcome: shares the entry, copies
/// nothing.
std::shared_ptr<const Outcome> shared_outcome(cache::PlanCache::Handle entry) {
  const Outcome* outcome = &entry->outcome();
  return {std::move(entry), outcome};
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

struct Engine::Impl {
  std::shared_ptr<cache::PlanCache> cache;

  /// Calibration state (DESIGN.md §13), hot-swappable via
  /// set_calibration. `hash` is table->content_hash() ("" = analytic);
  /// `prior_hashes` is the short most-recent-first history of superseded
  /// hashes that prepare() probes for repair seeds on a miss.
  mutable std::mutex calib_mu;
  std::shared_ptr<const calib::CalibrationTable> calib;
  std::string calib_hash;
  std::vector<std::string> prior_calib_hashes;

  std::mutex flights_mu;
  std::unordered_map<cache::RequestKey, std::shared_ptr<Flight>,
                     cache::RequestKeyHash>
      flights;

  std::mutex jobs_mu;
  std::condition_variable jobs_cv;
  std::deque<std::shared_ptr<Flight>> queue;
  std::vector<std::thread> workers;
  bool workers_started = false;
  bool shutdown = false;

  /// Observability (DESIGN.md §15): the service counters live on the
  /// engine's metrics registry; EngineStats is a snapshot view over
  /// them. Declaration order matters — the instrument pointers resolve
  /// off `registry` during member initialization.
  std::shared_ptr<obs::Registry> registry = std::make_shared<obs::Registry>();
  obs::Counter* requests = registry->counter("engine.requests");
  obs::Counter* searches = registry->counter("engine.searches");
  obs::Counter* flights_joined = registry->counter("engine.flights_joined");
  obs::Counter* cancelled = registry->counter("engine.cancelled");
  obs::Counter* deadlines = registry->counter("engine.deadlines");
  obs::Histogram* search_seconds =
      registry->histogram("engine.search_seconds");
};

std::string EngineStats::describe() const {
  std::ostringstream os;
  os << "requests=" << requests << " searches=" << searches
     << " flights_joined=" << flights_joined << " cancelled=" << cancelled
     << " deadlines=" << deadlines;
  return os.str();
}

std::shared_ptr<Engine> Engine::create(EngineOptions options) {
  return std::shared_ptr<Engine>(new Engine(std::move(options)));
}

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {
  CacheOptions& cache_options = options_.cache;

  // ---- Calibration bootstrap (DESIGN.md §13) ----
  // An explicit path must load or throw; the $KARMA_CALIB_DIR default is
  // opt-in ambience — absent file is normal, a corrupt one warns and runs
  // uncalibrated.
  {
    std::string path = cache_options.calibration_path;
    bool from_env = false;
    if (path.empty()) {
      if (const char* dir = std::getenv("KARMA_CALIB_DIR")) {
        path = std::string(dir) + "/calibration.json";
        from_env = true;
      }
    }
    if (!path.empty()) {
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        if (!from_env)
          throw std::runtime_error("cannot read calibration table '" + path +
                                   "'");
      } else {
        std::ostringstream text;
        text << in.rdbuf();
        try {
          auto table = std::make_shared<const calib::CalibrationTable>(
              calib::CalibrationTable::from_json(text.str()));
          impl_->calib_hash = table->content_hash();
          impl_->calib = std::move(table);
          // Analytic-model entries stay reachable as repair seeds.
          impl_->prior_calib_hashes.push_back("");
        } catch (const std::exception& ex) {
          if (!from_env) throw;
          std::fprintf(stderr,
                       "karma: ignoring corrupt calibration table '%s': %s\n",
                       path.c_str(), ex.what());
        }
      }
    }
  }

  if (cache_options.cache_dir.empty()) {
    // Opt-in persistent store via the environment (examples, CI): keep
    // shared cache dirs under the build tree — entries are generated
    // artifacts and must never land in version control.
    if (const char* dir = std::getenv("KARMA_CACHE_DIR"))
      cache_options.cache_dir = dir;
  }
  cache::PlanCache::Options opts;
  opts.memory_capacity_bytes = cache_options.cache_memory_bytes;
  opts.dir = cache_options.cache_dir;
  impl_->cache = std::make_shared<cache::PlanCache>(std::move(opts));

  // Mirror the cache's own counters into registry gauges at snapshot
  // time (CacheStats stays the owning surface; the registry is a
  // read-through view). The weak_ptr makes the collector inert if a
  // metrics() shared_ptr outlives this engine.
  obs::Registry* reg = impl_->registry.get();
  reg->add_collector(
      [reg, weak_cache = std::weak_ptr<cache::PlanCache>(impl_->cache)] {
        const std::shared_ptr<cache::PlanCache> cache = weak_cache.lock();
        if (!cache) return;
        const cache::CacheStats s = cache->stats();
        const auto mirror = [reg](const char* name, std::uint64_t v) {
          reg->gauge(name)->set(static_cast<double>(v));
        };
        mirror("cache.memory_hits", s.memory_hits);
        mirror("cache.disk_hits", s.disk_hits);
        mirror("cache.misses", s.misses);
        mirror("cache.insertions", s.insertions);
        mirror("cache.evictions", s.evictions);
        mirror("cache.disk_writes", s.disk_writes);
        mirror("cache.corrupt_entries", s.corrupt_entries);
        mirror("cache.resident_bytes", s.resident_bytes);
        mirror("cache.negative_hits", s.negative_hits);
        mirror("cache.negative_insertions", s.negative_insertions);
      });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(impl_->jobs_mu);
    impl_->shutdown = true;
  }
  impl_->jobs_cv.notify_all();
  for (auto& worker : impl_->workers) worker.join();
  // Belt: settle anything still queued (normally impossible — queued
  // flights hold futures, and futures keep the engine alive).
  std::deque<std::shared_ptr<Flight>> leftover;
  {
    std::lock_guard<std::mutex> lock(impl_->jobs_mu);
    leftover.swap(impl_->queue);
  }
  for (const auto& flight : leftover) {
    PlanError e = interrupted_error(StopReason::kCancelled,
                                    flight->model_name, flight->device_name);
    e.message = "engine shut down before the search started";
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->outcome = std::make_shared<const Outcome>(std::move(e));
    flight->done = true;
    flight->cv.notify_all();
  }
}

cache::CacheStats Engine::cache_stats() const {
  return impl_->cache->stats();
}

cache::PlanCache& Engine::plan_cache() const { return *impl_->cache; }

void Engine::set_calibration(
    std::shared_ptr<const calib::CalibrationTable> table) {
  const std::string hash = table ? table->content_hash() : std::string();
  std::lock_guard<std::mutex> lock(impl_->calib_mu);
  if (hash == impl_->calib_hash) {
    impl_->calib = std::move(table);  // same content, refreshed pointer
    return;
  }
  // Retire the superseded hash to the front of the repair-seed history
  // ("" — the analytic model — is a legitimate entry: plans cached before
  // any calibration seed the first calibrated searches). Bounded, deduped,
  // and never containing the ACTIVE hash, so prepare() probes at most a
  // handful of old keys and never its own.
  auto& prior = impl_->prior_calib_hashes;
  prior.erase(std::remove(prior.begin(), prior.end(), impl_->calib_hash),
              prior.end());
  prior.insert(prior.begin(), impl_->calib_hash);
  prior.erase(std::remove(prior.begin(), prior.end(), hash), prior.end());
  if (prior.size() > 4) prior.resize(4);
  impl_->calib = std::move(table);
  impl_->calib_hash = hash;
}

std::shared_ptr<const calib::CalibrationTable> Engine::calibration() const {
  std::lock_guard<std::mutex> lock(impl_->calib_mu);
  return impl_->calib;
}

std::string Engine::calibration_hash() const {
  std::lock_guard<std::mutex> lock(impl_->calib_mu);
  return impl_->calib_hash;
}

cache::RequestKey Engine::key_for(const PlanRequest& request) const {
  return cache::request_key(request, calibration_hash());
}

EngineStats Engine::stats() const {
  // Causally-consistent snapshot with no stop-the-world pause: every
  // increment is release-ordered (obs::Counter) and sequenced AFTER the
  // `requests` increment of the submission it belongs to, so reading the
  // downstream counters FIRST (acquire) guarantees that any effect we
  // observe has its cause visible in the later `requests` load. Within
  // one EngineStats, `searches + flights_joined <= requests` and
  // `cancelled + deadlines <= requests` therefore always hold — the
  // torn mixed-epoch snapshots the storm-poll regression test hunts.
  EngineStats s;
  s.searches = impl_->searches->value();
  s.flights_joined = impl_->flights_joined->value();
  s.cancelled = impl_->cancelled->value();
  s.deadlines = impl_->deadlines->value();
  s.requests = impl_->requests->value();
  return s;
}

const std::shared_ptr<obs::Registry>& Engine::metrics() const {
  return impl_->registry;
}

struct Engine::Prepared {
  std::shared_ptr<const Outcome> settled;  ///< set XOR flight set
  std::shared_ptr<Flight> flight;
  bool leader = false;
  Clock::time_point waiter_deadline = Clock::time_point::max();
  /// Absolute threshold returned by register_waiter_locked.
  std::int64_t waiter_budget_threshold = Flight::kUnboundedThreshold;
};

namespace {

/// Builds a fresh flight this caller leads, searching `request`. Derives
/// the host reserve here, on the lead path only: a cache hit or a join
/// never walks the model for it. Registers the caller as the first
/// waiter; `threshold_out` receives its absolute budget threshold.
std::shared_ptr<Flight> lead_flight(std::shared_ptr<const PlanRequest> request,
                                    Clock::time_point waiter_deadline,
                                    std::int64_t* threshold_out) {
  auto flight = std::make_shared<Flight>();
  flight->reserved_host = derive_reserved_host(*request);
  flight->planner_options = request->planner;
  flight->planner_options.schedule.reserved_host_bytes = flight->reserved_host;
  flight->want_probe = request->probe_feasible_batch;
  flight->model_name = request->model.name();
  flight->device_name = request->device.name;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    *threshold_out = flight->register_waiter_locked(
        waiter_deadline, request->limits.max_candidates);
  }
  flight->request = std::move(request);
  return flight;
}

}  // namespace

Engine::Prepared Engine::prepare(const PlanRequest& request,
                                 bool runs_on_caller) {
  impl_->requests->inc();

  Prepared prepared;
  if (auto invalid = validate(request)) {
    prepared.settled = std::make_shared<const Outcome>(std::move(*invalid));
    return prepared;
  }

  // This caller's limits, clocked from submission. They bound THIS
  // caller's wait; the shared search runs under the loosest limits of
  // its whole waiting set (Flight::refresh_limits_locked).
  if (request.limits.deadline > 0)
    prepared.waiter_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               request.limits.deadline));


  // Calibration snapshot for this submission (DESIGN.md §13): the key
  // embeds the active table's hash, and a flight led below searches the
  // calibrated device and keeps this snapshot even if a hot-swap lands
  // mid-search (its waiters subscribed under this hash).
  std::shared_ptr<const calib::CalibrationTable> calib;
  std::string calib_hash;
  std::vector<std::string> prior_hashes;
  {
    std::lock_guard<std::mutex> lock(impl_->calib_mu);
    calib = impl_->calib;
    calib_hash = impl_->calib_hash;
    prior_hashes = impl_->prior_calib_hashes;
  }

  // ---- Shared-cache consult (content-addressed; DESIGN.md §10) ----
  // The key is computed from the raw request: the derived reserve is a
  // pure function of request fields, so equal keys imply equal effective
  // options. limits/probe knobs are excluded (error-path and patience
  // knobs never change a completed artifact).
  const cache::RequestKey key = cache::request_key(request, calib_hash);
  {
    obs::Span lookup_span("engine.cache_lookup", "cache");
    if (auto hit = impl_->cache->lookup(key, request.probe_feasible_batch)) {
      prepared.settled = shared_outcome(std::move(hit));
      return prepared;
    }
  }
  // ---- Single-flight join-or-create (DESIGN.md §11) ----
  std::lock_guard<std::mutex> lock(impl_->flights_mu);
  auto it = impl_->flights.find(key);
  if (it != impl_->flights.end()) {
    bool joinable = false;
    {
      std::lock_guard<std::mutex> flight_lock(it->second->mu);
      joinable = !it->second->abandoned;
      if (joinable) {
        prepared.waiter_budget_threshold = it->second->register_waiter_locked(
            prepared.waiter_deadline, request.limits.max_candidates);
        it->second->want_probe |= request.probe_feasible_batch;
      }
    }
    if (joinable) {
      prepared.flight = it->second;
      impl_->flights_joined->inc();
      obs::emit_instant("engine.singleflight.join", "engine");
      return prepared;
    }
    // Abandoned (cancelled with no waiters left, not yet settled): delist
    // it — its own settle compares pointers before erasing — and lead a
    // fresh flight for this caller.
    impl_->flights.erase(it);
  }
  // The request the led flight actually searches: the raw request with
  // the cost overlay applied. Only a lead copies it — hits and joins never
  // do — and a lead on the caller's thread without an overlay searches the
  // caller's request in place (a non-owning pointer: the caller outlives
  // its own search).
  std::shared_ptr<const PlanRequest> searched;
  if (calib && !calib->empty()) {
    auto effective = std::make_shared<PlanRequest>(request);
    effective->device = calib::apply(*calib, request.device);
    searched = std::move(effective);
  } else if (runs_on_caller) {
    searched = std::shared_ptr<const PlanRequest>(
        std::shared_ptr<const PlanRequest>(), &request);
  } else {
    searched = std::make_shared<const PlanRequest>(request);
  }
  prepared.flight = lead_flight(std::move(searched), prepared.waiter_deadline,
                                &prepared.waiter_budget_threshold);
  prepared.flight->key = key;
  // Repair seed (DESIGN.md §13): the same request's plan cached under a
  // superseded calibration is a near-optimal warm start; probe the short
  // hash history quietly (no miss counter noise) so the led search
  // re-anneals from it instead of searching cold. A diagnosis is no seed.
  for (const std::string& prior : prior_hashes) {
    if (prior == calib_hash) continue;
    auto seed = impl_->cache->lookup(cache::request_key(request, prior),
                                     /*want_probe=*/false, /*quiet=*/true);
    if (seed && seed->outcome().has_value()) {
      const Plan* plan = &seed->outcome().value();
      prepared.flight->repair_seed =
          std::shared_ptr<const Plan>(std::move(seed), plan);
      break;
    }
  }
  impl_->flights.emplace(key, prepared.flight);
  prepared.leader = true;
  obs::emit_instant("engine.singleflight.lead", "engine");
  return prepared;
}

void Engine::run_flight(const std::shared_ptr<Flight>& flight) {
  // The search is the request's only reader. Drop it on every way out, so
  // no flight outlives a synchronous leader still pointing at the
  // leader's own request, and an owned copy is freed as soon as possible.
  struct DropRequest {
    Flight& flight;
    ~DropRequest() { flight.request.reset(); }
  } drop_request{*flight};

  // Settling: delist first (flights_mu), THEN publish done (flight->mu) —
  // the consistent flights_mu > flight->mu order used everywhere. Any
  // joiner that found the flight before the delist still receives this
  // outcome; any caller arriving after goes through the cache.
  const auto settle = [&](std::shared_ptr<const Outcome> outcome) {
    {
      std::lock_guard<std::mutex> lock(impl_->flights_mu);
      const auto it = impl_->flights.find(flight->key);
      if (it != impl_->flights.end() && it->second == flight)
        impl_->flights.erase(it);
    }
    {
      std::lock_guard<std::mutex> lock(flight->mu);
      flight->outcome = std::move(outcome);
      flight->done = true;
    }
    flight->cv.notify_all();
  };

  // The waiting set's probe demand at launch; a joiner that arrives
  // mid-diagnosis is covered by the cache's want_probe miss on its NEXT
  // call (the same eventual-consistency as a late deadline).
  bool want_probe = false;
  {
    std::lock_guard<std::mutex> lock(flight->mu);
    want_probe = flight->want_probe;
  }

  // Double-check the cache: this flight may have been created after an
  // identical one settled (and cached its plan or diagnosis) but before
  // its map entry could be observed — re-simulating would break the
  // "exactly one search" guarantee sequential callers rely on, and
  // re-diagnosing would re-run the multi-probe bisection just memoized.
  if (auto hit = impl_->cache->lookup(flight->key, want_probe,
                                      /*quiet=*/true)) {
    settle(shared_outcome(std::move(hit)));
    return;
  }

  // ---- Cross-process single-flight (DESIGN.md §12) ----
  // When the cache has a persistent level, extend the in-process collapse
  // fleet-wide via claim files: become the fleet leader (exclusive flock
  // on <key>.claim, held for the whole search) or wait for the current
  // leader's artifact. The claim only coordinates DEDUP — if claiming
  // fails for I/O reasons we fall through and search anyway; correctness
  // never depends on it.
  cache::DiskStore::Claim fleet_claim;  // released (unlink+close) on return
  if (cache::DiskStore* disk = impl_->cache->disk()) {
    obs::Span claim_span("engine.claim_wait", "engine");
    for (bool waiting = true; waiting;) {
      if (auto won = disk->try_claim(flight->key)) {
        fleet_claim = std::move(*won);
        // Leadership won — but a previous leader may have published
        // between our double-check above and the claim. One more quiet
        // re-lookup closes that window.
        if (auto hit = impl_->cache->lookup(flight->key, want_probe,
                                            /*quiet=*/true)) {
          settle(shared_outcome(std::move(hit)));
          return;
        }
        break;  // we lead the fleet-wide search
      }
      switch (disk->wait_for_entry(flight->key, flight->control)) {
        case cache::DiskStore::WaitOutcome::kEntry:
          // The remote leader published. Serve it through the normal
          // lookup (counts a disk hit — this process WAS served from
          // disk) unless the entry fails validation, in which case loop
          // back and try to lead the re-search ourselves.
          if (auto hit = impl_->cache->lookup(flight->key, want_probe)) {
            settle(shared_outcome(std::move(hit)));
            return;
          }
          break;
        case cache::DiskStore::WaitOutcome::kReleased:
          // Leader gone without an artifact: crashed, or its search ended
          // infeasible/cancelled (diagnoses are memoized per-process,
          // never persisted). Take over — one process at a time re-runs,
          // never a storm.
          break;
        case cache::DiskStore::WaitOutcome::kInterrupted:
          // Our own waiters' limits tripped while waiting on the remote
          // leader. Fall through to the search loop: its first
          // should_stop() check settles the interrupt through the one
          // existing path (or restarts if the trip went stale).
          waiting = false;
          break;
      }
    }
  }

  const auto on_best = [&](Plan&& snapshot) {
    auto shared = std::make_shared<const Plan>(std::move(snapshot));
    std::lock_guard<std::mutex> lock(flight->mu);
    flight->best = std::move(shared);
  };

  impl_->searches->inc();
  obs::Span search_span("engine.search", "search");
  obs::ScopedTimer search_timer(impl_->search_seconds);
  try {
    for (;;) {
      try {
        Plan artifact =
            plan_uncached(*flight->request, flight->planner_options,
                          flight->reserved_host, flight->control, on_best,
                          flight->repair_seed.get());
        // Only completed searches are cached.
        impl_->cache->insert(flight->key, artifact);
        settle(std::make_shared<const Outcome>(std::move(artifact)));
        return;
      } catch (const core::SearchInterrupted& interrupted) {
        // A deadline/budget interrupt can be STALE: a new waiter may have
        // joined and loosened the effective limits after the search
        // tripped but before we got here. Settling kDeadline would hand
        // that waiter an expiry it never subscribed to — restart instead
        // (the search is deterministic; a restart costs time, not
        // correctness). Cancellation is sticky and never retried. The
        // token's counters are deliberately NOT reset across restarts:
        // they meter total effort spent on the flight (budgets and
        // waiter-local baselines stay monotone), so the aborted
        // attempt's evaluations remain on the bill.
        if (interrupted.reason != StopReason::kCancelled &&
            !flight->control.should_stop())
          continue;
        PlanError e = interrupted_error(interrupted.reason,
                                        flight->model_name,
                                        flight->device_name);
        {
          std::lock_guard<std::mutex> lock(flight->mu);
          e.partial = flight->best;
        }
        // Never cached: an interrupt reflects this waiting set's
        // patience, not the request. The next caller re-searches fresh.
        settle(std::make_shared<const Outcome>(std::move(e)));
        return;
      }
    }
  } catch (const std::runtime_error& ex) {
    // Infeasibility is reported via std::runtime_error by the planners;
    // anything else (std::logic_error from plan validation or the sim
    // engine, allocation failure) is a bug and must surface loudly, not
    // be rebranded as a structured planning error.
    ProbeContext probe{*impl_->cache};
    PlanError e;
    try {
      PlanRequest diagnosed = *flight->request;
      diagnosed.probe_feasible_batch = want_probe;
      e = diagnose(diagnosed, flight->reserved_host, ex, probe,
                   flight->control);
      // Memoize only COMPLETE diagnoses: a tripped token truncates the
      // feasible-batch bisection (best-effort bracket, possibly -1), and
      // caching that as the request's answer would permanently poison
      // nearest_feasible_batch for later, uninterrupted callers. The
      // token is sticky once tripped (cancel is a flag, the deadline is
      // in the past, candidate counters only grow), so this check covers
      // every truncation the diagnosis could have suffered.
      if (!flight->control.should_stop())
        impl_->cache->insert(flight->key, e, want_probe);
    } catch (const core::SearchInterrupted& interrupted) {
      // Cancelled/expired while diagnosing (a probe search can be deep):
      // the caller asked us to stop — the diagnosis is abandoned.
      e = interrupted_error(interrupted.reason, flight->model_name,
                            flight->device_name);
    }
    settle(std::make_shared<const Outcome>(std::move(e)));
  } catch (const std::exception& ex) {
    // Invariant violation (std::logic_error from plan validation or the
    // sim engine, allocation failure): a bug, and it must surface loudly
    // — but not by stranding the flight's waiters on a never-settled cv
    // or letting later identical requests join a zombie. Settle everyone
    // with a structured internal error, then rethrow: the synchronous
    // leader propagates it to its caller exactly as the pre-service API
    // did; on a worker thread it terminates the process (loud).
    PlanError e;
    e.code = PlanErrorCode::kInternalError;
    e.message = std::string("internal error during planning: ") + ex.what();
    e.model = flight->model_name;
    e.device = flight->device_name;
    settle(std::make_shared<const Outcome>(std::move(e)));
    throw;
  }
}

// The pool threads inherit the scheduling policy of the first caller
// (plan_async; plan() takes it for a request with limits). In karma-pland
// that is a SCHED_IDLE plan worker: idle priority for bounded remote
// searches by accident of which thread asked first (test_pland pins it).
void Engine::ensure_workers() {
  std::lock_guard<std::mutex> lock(impl_->jobs_mu);
  if (impl_->workers_started) return;
  impl_->workers_started = true;
  std::size_t n = options_.num_workers;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::clamp<std::size_t>(hw == 0 ? 2 : hw, 1, 8);
  }
  impl_->workers.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    impl_->workers.emplace_back([this] { worker_loop(); });
}

void Engine::worker_loop() {
  for (;;) {
    std::shared_ptr<Flight> flight;
    {
      std::unique_lock<std::mutex> lock(impl_->jobs_mu);
      impl_->jobs_cv.wait(lock, [this] {
        return impl_->shutdown || !impl_->queue.empty();
      });
      if (impl_->shutdown) return;
      flight = std::move(impl_->queue.front());
      impl_->queue.pop_front();
    }
    run_flight(flight);
  }
}

namespace {

/// Settles THIS waiter with the interrupt outcome for `reason` (its own
/// cancel, deadline or budget) while the shared search keeps running for
/// the other waiters. Caller holds the flight's mu.
void settle_waiter_locked(FutureState& state, StopReason reason) {
  Flight& flight = *state.flight;
  PlanError e =
      interrupted_error(reason, flight.model_name, flight.device_name);
  e.partial = flight.best;
  state.outcome = std::make_shared<const Outcome>(std::move(e));
  if (state.registered) {
    state.registered = false;
    flight.deregister_waiter_locked(state.deadline, state.budget_threshold);
  }
  (reason == StopReason::kCancelled ? state.cancelled_counter
                                    : state.deadline_counter)
      ->inc();
  flight.cv.notify_all();  // wake copies of this future
}

/// Settlement helper shared by the synchronous wait and PlanFuture: blocks
/// on the flight until the search finishes or this caller's own deadline
/// passes (settling the caller-local kDeadline outcome), bounded by
/// `until` (time_point::max() = unbounded). Returns whether an outcome is
/// now available for this caller.
bool block_until_available(const std::shared_ptr<FutureState>& state,
                           Clock::time_point until) {
  if (!state->flight) return true;  // settled at submission
  Flight& flight = *state->flight;
  std::unique_lock<std::mutex> lock(flight.mu);
  for (;;) {
    if (state->outcome) return true;
    if (flight.done) {
      if (state->registered) {
        state->registered = false;
        flight.deregister_waiter_locked(state->deadline,
                                        state->budget_threshold);
      }
      state->outcome = flight.outcome;
      // Interrupt outcomes count per waiter regardless of which settle
      // path won the race (the search's own trip vs the waiter-local
      // poll) — otherwise the stats depend on scheduling.
      if (!state->outcome->has_value()) {
        const PlanErrorCode code = state->outcome->error().code;
        if (code == PlanErrorCode::kDeadline)
          state->deadline_counter->inc();
        else if (code == PlanErrorCode::kCancelled)
          state->cancelled_counter->inc();
      }
      return true;
    }
    if (Clock::now() >= state->deadline) {
      settle_waiter_locked(*state, StopReason::kDeadline);
      return true;
    }
    // Waiter-local candidate budget: a joiner's budget must settle the
    // joiner even when the flight's effective limits are looser (another
    // waiter is unbounded, so the search itself never trips). Candidate
    // increments don't signal the cv, so a budgeted waiter polls.
    const bool budgeted =
        state->budget_threshold != Flight::kUnboundedThreshold;
    if (budgeted && flight.control.candidates() >= state->budget_threshold) {
      settle_waiter_locked(*state, StopReason::kBudget);
      return true;
    }
    if (Clock::now() >= until) return false;
    Clock::time_point wake = std::min(state->deadline, until);
    if (budgeted)
      wake = std::min(wake, Clock::now() + std::chrono::milliseconds(10));
    if (wake == Clock::time_point::max())
      flight.cv.wait(lock);
    else
      flight.cv.wait_until(lock, wake);
  }
}

Expected<Plan, PlanError> outcome_of(
    const std::shared_ptr<FutureState>& state) {
  std::shared_ptr<const Outcome> outcome;
  if (state->flight) {
    // Pin the (immutable) outcome under the lock, but materialize the
    // by-value copy outside it: a Plan can be megabytes, and copying it
    // under flight->mu would serialize every waiter of a settled storm
    // behind one another (and block progress()/cancel() meanwhile).
    std::lock_guard<std::mutex> lock(state->flight->mu);
    outcome = state->outcome;
  } else {
    outcome = state->outcome;
  }
  return *outcome;
}

}  // namespace

std::optional<Expected<Plan, PlanError>> Engine::try_cached(
    const PlanRequest& request) {
  if (auto invalid = validate(request)) {
    impl_->requests->inc();
    return Outcome(std::move(*invalid));
  }
  return try_cached(key_for(request), request.probe_feasible_batch);
}

std::optional<Expected<Plan, PlanError>> Engine::try_cached(
    const cache::RequestKey& key, bool probe_feasible_batch) {
  if (const auto hit = lookup_cached(key, probe_feasible_batch))
    return hit->outcome();
  return std::nullopt;
}

std::shared_ptr<const cache::CachedOutcome> Engine::lookup_cached(
    const cache::RequestKey& key, bool probe_feasible_batch) {
  // No validate(): the PlanRequest overload validates before it
  // delegates, and only validated requests insert, so a bare key can
  // read nothing an invalid request produced.
  obs::Span lookup_span("engine.cache_lookup", "cache");
  // quiet: a miss flows into plan()/plan_async(), whose own prepare
  // counts it — counting it here too would double-bill.
  auto hit = impl_->cache->lookup(key, probe_feasible_batch, /*quiet=*/true);
  if (hit) impl_->requests->inc();
  return hit;
}

Expected<Plan, PlanError> Engine::plan(const PlanRequest& request) {
  // A bounded synchronous caller must not lead the search on its own
  // thread: the flight's effective limits are the LOOSEST over waiters,
  // so a joiner without limits would strip this caller's deadline/budget
  // off the token and leave its own thread running the search to
  // completion. Routing through the worker pool makes it a plain waiter
  // — block_until_available settles it at ITS limits while the shared
  // search lives on (or is cancelled when it was the only one).
  if (request.limits.deadline > 0 || request.limits.max_candidates > 0)
    return plan_async(request).get();

  Prepared prepared = prepare(request, /*runs_on_caller=*/true);
  if (prepared.settled) return *prepared.settled;

  auto state = std::make_shared<FutureState>();
  state->engine = shared_from_this();
  state->deadline_counter = impl_->deadlines;
  state->cancelled_counter = impl_->cancelled;
  state->flight = prepared.flight;
  state->deadline = prepared.waiter_deadline;
  state->budget_threshold = prepared.waiter_budget_threshold;
  state->registered = true;

  // The synchronous leader runs the search on the calling thread — the
  // worker pool is for plan_async only. Its own deadline/budget are
  // enforced inside the search (the flight's effective limits include
  // them), so the post-run wait returns immediately.
  if (prepared.leader) run_flight(prepared.flight);
  block_until_available(state, Clock::time_point::max());
  return outcome_of(state);
}

Plan Engine::plan_or_throw(const PlanRequest& request) {
  auto result = plan(request);
  if (!result) throw std::runtime_error(result.error().describe());
  return std::move(result).value();
}

PlanFuture Engine::plan_async(const PlanRequest& request) {
  Prepared prepared = prepare(request, /*runs_on_caller=*/false);
  auto state = std::make_shared<FutureState>();
  state->engine = shared_from_this();
  state->deadline_counter = impl_->deadlines;
  state->cancelled_counter = impl_->cancelled;
  if (prepared.settled) {
    state->outcome = std::move(prepared.settled);
    return PlanFuture(std::move(state));
  }
  state->flight = prepared.flight;
  state->deadline = prepared.waiter_deadline;
  state->budget_threshold = prepared.waiter_budget_threshold;
  state->registered = true;
  if (prepared.leader) {
    ensure_workers();
    {
      std::lock_guard<std::mutex> lock(impl_->jobs_mu);
      impl_->queue.push_back(prepared.flight);
    }
    impl_->jobs_cv.notify_one();
  }
  return PlanFuture(std::move(state));
}

// ---------------------------------------------------------------------------
// PlanFuture
// ---------------------------------------------------------------------------

void PlanFuture::wait() const {
  if (!state_) return;
  block_until_available(state_, Clock::time_point::max());
}

bool PlanFuture::wait_for(Seconds timeout) const {
  if (!state_) return false;
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::max(0.0, timeout)));
  return block_until_available(state_, until);
}

Expected<Plan, PlanError> PlanFuture::get() const {
  if (!state_)
    throw std::logic_error("PlanFuture::get on an invalid future");
  block_until_available(state_, Clock::time_point::max());
  return outcome_of(state_);
}

void PlanFuture::cancel() const {
  if (!state_ || !state_->flight) return;  // settled at submission: no-op
  Flight& flight = *state_->flight;
  std::lock_guard<std::mutex> lock(flight.mu);
  if (state_->outcome || flight.done) return;  // outcome already available
  settle_waiter_locked(*state_, StopReason::kCancelled);
}

PlanProgress PlanFuture::progress() const {
  PlanProgress progress;
  if (!state_) return progress;
  if (!state_->flight) {
    progress.done = true;  // settled at submission: no search ran
    return progress;
  }
  const Flight& flight = *state_->flight;
  progress.candidates = flight.control.candidates();
  progress.simulations = flight.control.simulations();
  progress.memo_hits = flight.control.memo_hits();
  progress.best_cost = flight.control.best_cost();
  progress.has_best = std::isfinite(progress.best_cost);
  std::lock_guard<std::mutex> lock(state_->flight->mu);
  progress.done = state_->flight->done || state_->outcome != nullptr;
  return progress;
}

}  // namespace karma::api
