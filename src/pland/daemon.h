// karma::pland::Daemon — the cross-process fleet planning service
// (DESIGN.md §12).
//
// One daemon per node fronts one api::Engine (one shared plan cache) for
// every training job on the machine, over the length-prefixed JSON
// protocol (protocol.h) on a unix socket, via api::RemoteSession or
// karma-planctl. A cold storm never sits in front of a warm hit:
//   - HIT PATH (reader thread): a `lookup` frame carries the client's
//     128-bit request key and is answered from Engine::lookup_cached(key)
//     with the entry's memoized bytes: no model on the wire, no queue, no
//     worker, no search, no re-serialization.
//   - MISS PATH (plan workers): a `plan` frame's request bytes join its
//     tenant's queue; SCHED_IDLE workers drain the queues under stride
//     scheduling (capacity in proportion to tenant weights), parse the
//     request and call Engine::plan. Identical misses collapse in the
//     Engine's single-flight, and fleet-wide in the DiskStore claims.
//   - ADMISSION: a full tenant queue sheds the request at once with
//     PlanError{kOverloaded} and a retry_after hint.
//   - BOUNDS: at most kMaxConnections reader threads, and every socket
//     reads and writes under kIoDeadline (protocol.h): a client that
//     stalls mid-frame or stops reading its responses loses its
//     connection, and holds no thread or plan worker for long.
// The "stats" request exports engine, cache, claim and per-tenant counters
// as JSON (DaemonStats).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/api/engine.h"
#include "src/cache/plan_cache.h"

namespace karma::pland {

/// Most connections served at once, each by a reader thread (DESIGN.md §12);
/// a client past the cap gets one kOverloaded envelope, then EOF.
inline constexpr std::size_t kMaxConnections = 64;

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

/// The daemon counters live in the engine's obs::Registry
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
  /// every live connection and waits until each reader has ended, joins
  /// the plan workers, settles queued misses with kUnavailable responses.
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

  /// Connections with a live reader thread (at most kMaxConnections).
  std::size_t open_connections() const;

 private:
  struct Impl;
  DaemonOptions options_;
  std::shared_ptr<api::Engine> engine_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace karma::pland
