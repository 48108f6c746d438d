// karma::pland::Daemon — the cross-process fleet planning service
// (DESIGN.md §12).
//
// One daemon per node fronts one api::Engine (and therefore ONE shared
// two-level plan cache) for every training job on the machine. Clients
// speak the length-prefixed JSON protocol (protocol.h) over a unix domain
// socket, via api::RemoteSession or the karma-planctl CLI.
//
// Request path, designed so a cold storm can never sit in front of a warm
// hit:
//   - HIT PATH (connection thread): a client first sends a `lookup`
//     frame carrying the 128-bit key it computed for its request; the
//     daemon answers it from the cache with Engine::try_cached(key) — no
//     model on the wire, no queue, no worker, no search. Memoized plans
//     and diagnoses answer in microseconds regardless of what the worker
//     pool is chewing on.
//   - MISS PATH (worker pool): a `plan` frame carries the request by
//     value. The connection thread only admits it; it is enqueued per
//     tenant, and a plan worker parses it and calls Engine::plan, which
//     keys it and answers from the cache if an identical search finished
//     since the client's lookup. The workers run at SCHED_IDLE and drain
//     the queues under stride scheduling — weighted round-robin over the
//     non-empty tenant queues, so K tenants get capacity proportional to
//     their weights no matter how many requests any one of them piles
//     up. Identical concurrent misses still collapse through the
//     Engine's single-flight (in-process) and the DiskStore claim files
//     (fleet-wide).
//   - ADMISSION: each tenant's queue is depth-bounded; beyond it the
//     daemon sheds the request immediately with PlanError{kOverloaded}
//     and a retry_after hint instead of letting queues (and client
//     latency) grow without bound.
//
// Stats: the "stats" request exports EngineStats + CacheStats + claim
// counters + per-tenant admission/completion/shed counters as JSON — the
// observable surface BENCH_service.json and the CI smoke job read.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/cache/plan_cache.h"

namespace karma::pland {

struct DaemonOptions {
  /// Filesystem path the unix socket binds at. A stale socket file from a
  /// dead daemon is unlinked on start; a live one fails start().
  std::string socket_path;
  /// The fronted Engine (cache capacity/dir, engine workers).
  api::EngineOptions engine;
  /// Daemon plan workers draining the tenant queues; 0 = auto
  /// (hardware_concurrency clamped to [2, 8]).
  std::size_t num_workers = 0;
  /// Admission bound: max queued (not yet started) misses per tenant.
  std::size_t max_queue_per_tenant = 64;
  /// retry_after hint attached to kOverloaded sheds, seconds.
  double retry_after = 0.25;
  /// Stride-scheduling weights; tenants absent from the map weigh 1.0.
  /// A tenant with weight 2 drains twice as often as one with weight 1
  /// when both have backlog.
  std::map<std::string, double> tenant_weights;
  /// Non-empty enables request-lifecycle tracing (DESIGN.md §15) for the
  /// daemon's lifetime and flushes the trace ring to
  /// `<trace_dir>/plan-<seq>.trace.json` (Chrome trace_event JSON —
  /// Perfetto-loadable) after every completed miss and once more at
  /// stop(). The directory is created best-effort on start().
  std::string trace_dir;
};

struct TenantStats {
  std::string tenant;
  std::uint64_t admitted = 0;   ///< misses accepted into the queue
  std::uint64_t completed = 0;  ///< searches finished (any outcome)
  std::uint64_t shed = 0;       ///< rejected kOverloaded
  std::uint64_t hits = 0;       ///< served on the hit path, no queue
  std::size_t queue_depth = 0;  ///< queued right now
};

/// Since PR 9 the daemon counters live in the engine's obs::Registry
/// ("pland.requests" etc. — the `metrics` verb exports them alongside the
/// engine's), and this struct is a causally-consistent snapshot view:
/// collect_stats reads effects before causes (shed/protocol_errors before
/// requests before connections), so `shed <= requests <= connections`
/// holds in every snapshot even mid-storm.
struct DaemonStats {
  std::uint64_t connections = 0;      ///< accepted over the lifetime
  std::uint64_t requests = 0;         ///< plan envelopes received
  std::uint64_t shed = 0;             ///< total kOverloaded rejections
  std::uint64_t protocol_errors = 0;  ///< unparseable/oversized frames
  api::EngineStats engine;
  cache::CacheStats cache;
  std::uint64_t claims_won = 0;       ///< fleet single-flight leaderships
  std::uint64_t claims_lost = 0;
  /// Active CalibrationTable content hash; "" = analytic cost model.
  std::string calibration;
  /// Schema version of the active table; 0 when uncalibrated.
  std::int64_t calibration_version = 0;
  std::vector<TenantStats> tenants;   ///< sorted by tenant name

  /// The stats envelope body ("stats" value) the daemon serves.
  std::string to_json() const;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();  ///< stop()s if still running

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, and spawns the accept loop + plan workers. Returns
  /// false (with the daemon stopped) when the socket cannot be bound —
  /// e.g. a live daemon already owns the path.
  bool start();

  /// Graceful stop, idempotent: closes the listen socket, shuts down
  /// every live connection (their reader threads drain), settles queued
  /// misses with kUnavailable responses, joins all threads.
  void stop();

  /// Blocks until a stop is requested (a "shutdown" envelope, a signal
  /// via request_stop_from_signal, or a concurrent stop()), then performs
  /// the graceful stop on the calling thread.
  void wait();

  /// Async-signal-safe stop request: a lone atomic store, no locks, no
  /// allocation. wait() polls the flag, so no notify is needed.
  void request_stop_from_signal();

  bool running() const;

  const std::string& socket_path() const { return options_.socket_path; }
  const std::shared_ptr<api::Engine>& engine() const { return engine_; }
  DaemonStats stats() const;

  /// Connections currently tracked (live readers plus any finished ones
  /// the accept loop has not reaped yet — it reaps every poll tick).
  std::size_t open_connections() const;

 private:
  struct Impl;
  DaemonOptions options_;
  std::shared_ptr<api::Engine> engine_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace karma::pland
