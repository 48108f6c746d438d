// karma::api::Engine — the process-wide planning service (DESIGN.md §11).
//
// PR 4 made planning pure and content-addressed: a PlanRequest is a value,
// the search is a deterministic function of it, and the artifact
// serializes byte-stably. The Engine is the service built on that fact:
//
//   - ONE shared two-level outcome cache (plan artifacts and memoized
//     infeasibility diagnoses in one byte-bounded LRU, plans also on
//     disk) that every tenant reads and warms;
//   - single-flight collapse: concurrent identical requests (same
//     cache::RequestKey) share one search — one simulation storm, every
//     waiter gets the bit-identical artifact;
//   - a lazily started worker pool for plan_async() (synchronous plan()
//     runs the search on the calling thread but still participates in
//     single-flight as leader or joiner);
//   - cooperative cancellation: every search runs under a CancelToken
//     whose effective deadline/budget is the *loosest* over the flight's
//     interested waiters — one tenant's cancel or deadline never
//     truncates another's search; when the last waiter leaves, the
//     search is cancelled and its (uncached) result discarded.
//
// Lifecycle: Engine::create() returns a shared_ptr, the one planning
// handle; PlanFutures keep their Engine alive, so the pool cannot be torn
// down under an outstanding request. Destruction stops the workers and
// settles any still-queued flights with PlanError{kCancelled}.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/api/session.h"

namespace karma::cache {
class CachedOutcome;
class PlanCache;
struct CacheStats;
struct RequestKey;
}  // namespace karma::cache

namespace karma::calib {
struct CalibrationTable;
}  // namespace karma::calib

namespace karma::obs {
class Registry;
}  // namespace karma::obs

namespace karma::api {

namespace detail {
struct Flight;
}  // namespace detail

/// Configuration of a planning service.
struct EngineOptions {
  /// Shared-cache behavior (byte capacity, disk dir, calibration).
  CacheOptions cache;
  /// Worker threads for plan_async(); 0 = auto (hardware concurrency,
  /// clamped to [1, 8]). Workers start lazily on the first async submit.
  /// Note: a synchronous plan() carrying SearchLimits also routes through
  /// the pool (the search must outlive the caller's wait to keep
  /// waiter-local limits honest), so only an Engine doing exclusively
  /// unbounded synchronous plans stays thread-free.
  std::size_t num_workers = 0;
};

/// Service-level counters (cache-level ones live in cache::CacheStats).
/// The single-flight proof in tests and benches: a 16-thread identical
/// storm must report searches == 1.
///
/// Since PR 9 this is a snapshot VIEW over the engine's obs::Registry
/// counters ("engine.requests" etc.). Engine::stats() captures a
/// causally-consistent snapshot: within one EngineStats,
/// `searches + flights_joined <= requests` and
/// `cancelled + deadlines <= requests` hold even while a plan storm is
/// incrementing concurrently (release increments, acquire reads in
/// reverse-causal order — no torn mixed-epoch snapshots).
struct EngineStats {
  std::uint64_t requests = 0;        ///< plan() + plan_async() submissions
  std::uint64_t searches = 0;        ///< planner searches actually started
  std::uint64_t flights_joined = 0;  ///< deduped onto an in-flight search
  std::uint64_t cancelled = 0;       ///< waiter outcomes settled kCancelled
  std::uint64_t deadlines = 0;       ///< waiter outcomes settled kDeadline

  /// One-line render, e.g. "requests=16 searches=1 flights_joined=15 ...".
  std::string describe() const;
};

class Engine : public std::enable_shared_from_this<Engine> {
 public:
  static std::shared_ptr<Engine> create(EngineOptions options = {});
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Plans `request` end to end: charges the optimizer's host residency
  /// into per-tier admission, consults the shared outcome cache (plan or
  /// diagnosis), collapses into any identical in-flight search
  /// (single-flight) or leads a new one on the calling thread — Opt-1/
  /// Opt-2, the 5-stage distributed pipeline when request.distributed is
  /// set, or the per-node fleet search when request.fleet is — and wraps
  /// the result in a Plan artifact. Cache hits are bit-identical (same
  /// to_json()) to fresh plans. Never throws — infeasibility returns a
  /// structured PlanError (the nearest-feasible-batch bisection caches its
  /// successful probes), and request.limits turn an over-budget search
  /// into PlanError{kDeadline} with the best-so-far plan attached.
  Expected<Plan, PlanError> plan(const PlanRequest& request);

  /// Throwing convenience for call sites without error handling (benches,
  /// examples): unwraps plan() or throws
  /// std::runtime_error(error.describe()).
  Plan plan_or_throw(const PlanRequest& request);

  /// Asynchronous plan on the worker pool. Cache hits and invalid
  /// requests settle the future immediately; otherwise the future tracks
  /// the (possibly shared) flight. See PlanFuture.
  PlanFuture plan_async(const PlanRequest& request);

  /// Cache-only probe — never searches, queues, or blocks on a flight:
  /// validates the request and consults the shared cache. Returns the
  /// settled outcome for invalid requests and for memoized plans or
  /// diagnoses; nullopt = only a search could answer (submit via
  /// plan/plan_async).
  std::optional<Expected<Plan, PlanError>> try_cached(
      const PlanRequest& request);

  /// Key-addressed variant for callers that hold only the content key: a
  /// copy of what lookup_cached(key, probe_feasible_batch) holds.
  std::optional<Expected<Plan, PlanError>> try_cached(
      const cache::RequestKey& key, bool probe_feasible_batch);

  /// The cache entry itself, null when only a search could answer: no
  /// outcome is copied, and its json() is the entry's memoized wire bytes.
  /// For callers that hold only the content key (karma-pland's `lookup`
  /// verb: the client keys its own request, so a warm hit never ships or
  /// parses the model). No validation runs, and none is needed: every
  /// entry was inserted under the key of a request that validated, so any
  /// key reads only what such a request produced. `probe_feasible_batch`
  /// must be the flag of the keyed request — it selects which memoized
  /// diagnoses are eligible. This is karma-pland's hit path: connection
  /// threads serve warm hits directly, so one tenant's cold storm queued
  /// at the worker pool can never add latency to another tenant's hits.
  std::shared_ptr<const cache::CachedOutcome> lookup_cached(
      const cache::RequestKey& key, bool probe_feasible_batch);

  /// Installs (or, with nullptr, clears) the measured-cost calibration
  /// table (DESIGN.md §13). Takes effect on the next prepare(): new
  /// requests are keyed under the table's content hash and searched
  /// against the calibrated device; in-flight searches keep the snapshot
  /// they started with. The superseded hash joins a short history that
  /// prepare() probes on a miss — a plan cached under the previous
  /// calibration becomes the warm-start seed of a calib-repair search
  /// instead of a cold one. Thread-safe; hot-swappable (karma-pland's
  /// `calibrate` verb lands here).
  void set_calibration(std::shared_ptr<const calib::CalibrationTable> table);

  /// The active table (nullptr = analytic model).
  std::shared_ptr<const calib::CalibrationTable> calibration() const;

  /// The active table's content hash, "" when uncalibrated — the value
  /// joined into every RequestKey this engine computes.
  std::string calibration_hash() const;

  /// Content key of `request` under the engine's ACTIVE calibration —
  /// what try_cached/plan would key it as right now.
  cache::RequestKey key_for(const PlanRequest& request) const;

  /// Counters of the shared two-level cache.
  cache::CacheStats cache_stats() const;

  /// The shared plan cache itself. karma-pland's stats endpoint reads the
  /// fleet claim counters off its DiskStore.
  cache::PlanCache& plan_cache() const;

  EngineStats stats() const;

  /// The engine's metrics registry (DESIGN.md §15): every EngineStats
  /// counter plus latency histograms ("engine.search_seconds"), with
  /// CacheStats mirrored in as gauges at snapshot time. Shared so
  /// embedders (karma-pland) register their own instruments alongside —
  /// one `metrics` verb then exposes the whole process.
  const std::shared_ptr<obs::Registry>& metrics() const;

  /// Resolved options ($KARMA_CACHE_DIR applied to cache.cache_dir).
  const EngineOptions& options() const { return options_; }

 private:
  friend class PlanFuture;

  explicit Engine(EngineOptions options);

  /// Validation + cache consult + single-flight join-or-create. Exactly
  /// one of the results: a settled outcome, or a flight this caller is
  /// registered with (`leader` = this caller must run/enqueue it).
  /// `runs_on_caller`: a flight this caller leads runs on its own thread
  /// before it returns, so the flight may read `request` in place instead
  /// of copying it.
  struct Prepared;
  Prepared prepare(const PlanRequest& request, bool runs_on_caller);

  /// Executes a flight's search end to end and settles it (worker thread
  /// or synchronous leader). Re-consults the cache first, so a flight
  /// that lost a race with an already-completed identical search never
  /// re-simulates.
  void run_flight(const std::shared_ptr<detail::Flight>& flight);

  void ensure_workers();
  void worker_loop();

  struct Impl;
  EngineOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace karma::api
