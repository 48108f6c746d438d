#include "src/pland/daemon.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/file.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "src/api/request_io.h"
#include "src/calib/table.h"
#include "src/cache/disk_store.h"
#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/pland/protocol.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace karma::pland {

namespace {

using util::json::Writer;

/// One accepted client. The reader thread and the plan workers share it;
/// the write mutex serializes response frames (clients may pipeline, so a
/// worker's plan response can race the reader thread's pong).
struct Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() { ::close(fd); }
  const int fd;
  std::mutex write_mu;
  /// Set once the stream is shut down: plan jobs still queued for it then
  /// settle without a search, and nothing more is sent.
  std::atomic<bool> broken{false};

  /// A response not sent within kIoDeadline shuts the connection down.
  bool send(const std::string& payload) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (broken.load(std::memory_order_relaxed)) return false;
    if (write_frame(fd, payload, kIoDeadline)) return true;
    shut_down();
    return false;
  }

  /// Ends the stream both ways: the reader reads EOF, sends fail at once.
  void shut_down() {
    broken.store(true, std::memory_order_relaxed);
    ::shutdown(fd, SHUT_RDWR);
  }
};

/// Builds the sockaddr for `path`; false when it exceeds sun_path.
bool fill_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof addr->sun_path) return false;
  std::memset(addr, 0, sizeof *addr);
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// A response envelope: `ok`, then (when `key` is set) one artifact
/// spliced verbatim — a plan, an error, the stats or the metrics document.
std::string response(std::string_view type, std::int64_t id, bool ok,
                     const char* key = nullptr, const std::string& raw = {}) {
  return write_envelope(type, id, [&](Writer& w) {
    w.key("ok"); w.value(ok);
    if (key != nullptr) {
      w.key(key); w.raw(raw);
    }
  });
}

std::string plan_response(std::int64_t id,
                          const api::Expected<api::Plan, api::PlanError>& out) {
  // Spliced verbatim: the artifact on the wire is byte-identical to the
  // engine's Plan::to_json(), for every client of every process.
  if (out.has_value())
    return response("plan", id, true, "plan", out->to_json());
  return response("plan", id, false, "error", api::error_to_json(out.error()));
}

/// An ok:false envelope carrying a PlanError of `code`.
std::string error_response(std::string_view type, std::int64_t id,
                           api::PlanErrorCode code, std::string message,
                           double retry_after = 0.0) {
  api::PlanError e;
  e.code = code;
  e.message = std::move(message);
  e.retry_after = retry_after;
  return response(type, id, false, "error", api::error_to_json(e));
}

}  // namespace

std::string DaemonStats::to_json() const {
  Writer w;
  const auto count = [&w](const char* key, std::uint64_t n) {
    w.key(key); w.value(static_cast<std::int64_t>(n));
  };
  w.begin_object();
  count("connections", connections);
  count("requests", requests);
  count("shed", shed);
  count("protocol_errors", protocol_errors);
  w.key("engine");
  w.begin_object();
  count("requests", engine.requests);
  count("searches", engine.searches);
  count("flights_joined", engine.flights_joined);
  count("cancelled", engine.cancelled);
  count("deadlines", engine.deadlines);
  w.end_object();
  w.key("cache");
  w.begin_object();
  count("memory_hits", cache.memory_hits);
  count("disk_hits", cache.disk_hits);
  count("misses", cache.misses);
  count("insertions", cache.insertions);
  count("evictions", cache.evictions);
  count("disk_writes", cache.disk_writes);
  count("corrupt_entries", cache.corrupt_entries);
  count("resident_bytes", cache.resident_bytes);
  count("negative_hits", cache.negative_hits);
  count("negative_insertions", cache.negative_insertions);
  w.end_object();
  count("claims_won", claims_won);
  count("claims_lost", claims_lost);
  w.key("calibration"); w.value(calibration);
  w.key("calibration_version"); w.value(calibration_version);
  w.key("tenants");
  w.begin_array();
  for (const auto& t : tenants) {
    w.begin_object();
    w.key("tenant"); w.value(t.tenant);
    count("admitted", t.admitted);
    count("completed", t.completed);
    count("shed", t.shed);
    count("hits", t.hits);
    count("queue_depth", t.queue_depth);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

struct Daemon::Impl {
  Impl(const DaemonOptions& options, std::shared_ptr<api::Engine> engine)
      : options(options), engine(std::move(engine)) {}

  const DaemonOptions& options;  ///< Daemon owns it and outlives Impl
  std::shared_ptr<api::Engine> engine;

  // Lifetime counters and latency histograms live in the ENGINE's
  // registry, so one `metrics` verb exports the whole process (DESIGN.md
  // §15): hits' service time, misses' admission to response and to
  // dequeue, and the plan workers' request_from_json.
  obs::Registry& reg = *engine->metrics();
  obs::Counter* const connections = reg.counter("pland.connections");
  obs::Counter* const requests = reg.counter("pland.requests");
  obs::Counter* const shed = reg.counter("pland.shed");
  obs::Counter* const protocol_errors = reg.counter("pland.protocol_errors");
  obs::Histogram* const hit_seconds = reg.histogram("pland.hit_seconds");
  obs::Histogram* const miss_seconds = reg.histogram("pland.miss_seconds");
  obs::Histogram* const queue_wait_seconds =
      reg.histogram("pland.queue_wait_seconds");
  obs::Histogram* const request_parse_seconds =
      reg.histogram("pland.request_parse_seconds");

  // ---- Miss queue: per tenant, drained under stride scheduling ----
  // A job carries the raw request bytes: everything model-sized (parse,
  // keying, search) runs on the plan workers at idle priority, so a cold
  // storm never puts parse work in front of another tenant's hits.
  struct Job {
    std::shared_ptr<Connection> conn;
    std::int64_t id = 0;
    std::string raw_request;
    std::string tenant;
    /// Admission timestamp (obs::trace_now_us clock): the queue-wait
    /// histogram and the cross-thread "pland.queue_wait" trace slice both
    /// measure dequeue - this.
    std::uint64_t enqueue_us = 0;
  };
  struct TenantQueue {
    std::deque<Job> jobs;
    /// Stride pass: the virtual time this tenant is next served at. The
    /// workers pick the least pass and advance it by 1/weight, so a
    /// weight-2 tenant drains twice as often, whatever the backlogs.
    double pass = 0.0;
    double weight = 1.0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t hits = 0;
  };

  int listen_fd = -1;
  /// Exclusive flock on <socket>.lock, held for the daemon's lifetime —
  /// serializes the stale-socket probe/unlink/bind against a concurrently
  /// starting daemon. The lock file itself is never unlinked (unlinking
  /// would reintroduce the race it exists to close).
  int lock_fd = -1;
  std::thread accept_thread;
  std::vector<std::thread> worker_threads;

  // ---- Live connections, one detached reader thread each ----
  // A reader erases its connection and notifies under conns_mu as its
  // last act: stop() shuts every live fd down and waits for the set to
  // empty, and nothing is left to join.
  mutable std::mutex conns_mu;
  std::condition_variable conns_cv;
  std::unordered_set<Connection*> conns;

  mutable std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::map<std::string, TenantQueue> tenants;
  /// Pass of the most recently picked job. New tenants join here, and an
  /// idle tenant's pass is clamped up to here when it re-enters, so idle
  /// time never banks into a burst credit.
  double virtual_time = 0.0;

  std::atomic<bool> stopping{false};        ///< reject new work, drain
  std::atomic<bool> stop_requested{false};  ///< a "shutdown" envelope asked
  std::mutex state_mu;
  std::condition_variable state_cv;
  bool started = false;
  bool stopped = false;

  // ---- Per-plan trace flush (options.trace_dir non-empty) ----
  std::mutex trace_mu;
  std::uint64_t trace_seq = 0;

  /// Drains the trace ring into `<trace_dir>/plan-<seq>.trace.json`.
  /// Called after every completed miss and at stop(); no-op when tracing
  /// is not directed at a directory.
  void flush_trace() {
    if (options.trace_dir.empty()) return;
    std::lock_guard<std::mutex> lock(trace_mu);
    std::vector<obs::TraceEvent> events;
    if (obs::drain_trace(&events) == 0) return;
    const std::string path = options.trace_dir + "/plan-" +
                             std::to_string(trace_seq++) + ".trace.json";
    std::ofstream out(path);
    out << obs::chrome_trace_json(events) << "\n";
  }

  /// Releases the socket-path flock (closing the fd releases it).
  void release_lock() {
    if (lock_fd >= 0) {
      ::close(lock_fd);
      lock_fd = -1;
    }
  }

  /// Caller holds queue_mu.
  TenantQueue& tenant_queue(const std::string& tenant) {
    auto it = tenants.find(tenant);
    if (it == tenants.end()) {
      TenantQueue q;
      const auto w = options.tenant_weights.find(tenant);
      q.weight = w != options.tenant_weights.end() && w->second > 0
                     ? w->second
                     : 1.0;
      q.pass = virtual_time;
      it = tenants.emplace(tenant, std::move(q)).first;
    }
    return it->second;
  }

  /// Blocks in accept() until stop() shuts the listening socket down. Up
  /// to kMaxConnections, each connection gets kIoDeadline both ways and a
  /// reader thread; past the cap, one kOverloaded envelope and a close.
  void accept_loop() {
    const timeval deadline{kIoDeadline.count() / 1000,
                           kIoDeadline.count() % 1000 * 1000};
    while (!stopping.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      connections->inc();
      obs::emit_instant("pland.accept", "pland");
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &deadline, sizeof deadline);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &deadline, sizeof deadline);
      auto conn = std::make_shared<Connection>(fd);
      {
        std::lock_guard<std::mutex> lock(conns_mu);
        if (conns.size() < kMaxConnections) {
          conns.insert(conn.get());
          std::thread([this, conn] {
            serve_connection(conn);
            std::lock_guard<std::mutex> lock(conns_mu);
            conns.erase(conn.get());
            conns_cv.notify_all();
          }).detach();
          continue;
        }
      }
      obs::emit_instant("pland.refuse", "pland");
      conn->send(error_response(
          "error", 0, api::PlanErrorCode::kOverloaded,
          "karma-pland serves at most " + std::to_string(kMaxConnections) +
              " connections at once; retry later",
          options.retry_after));
    }
  }

  void serve_connection(const std::shared_ptr<Connection>& conn) {
    std::string payload;
    while (!stopping.load(std::memory_order_relaxed)) {
      const ReadStatus status = read_frame(conn->fd, &payload, kIoDeadline);
      if (status == ReadStatus::kEof) return;
      if (status != ReadStatus::kOk) {
        // Framing is unrecoverable once desynced, or the frame was late.
        protocol_errors->inc();
        conn->shut_down();
        return;
      }
      std::int64_t id = 0;
      try {
        obs::Span parse_span("frame.parse", "pland");
        const Envelope env = read_envelope(payload);
        id = env.id;
        const std::string type = env.type.string();
        parse_span.end();
        if (type == "ping") {
          conn->send(response("pong", id, true));
        } else if (type == "stats") {
          conn->send(response("stats", id, true, "stats",
                              collect_stats().to_json()));
        } else if (type == "metrics") {
          // Engine, cache and daemon instruments (DESIGN.md §15).
          conn->send(response("metrics", id, true, "metrics",
                              engine->metrics()->snapshot_json()));
        } else if (type == "shutdown") {
          conn->send(response("shutdown", id, true));
          stop_requested.store(true, std::memory_order_relaxed);
          state_cv.notify_all();
          return;
        } else if (type == "lookup") {
          handle_lookup(conn, id, env);
        } else if (type == "plan") {
          if (env.request.absent())
            throw std::runtime_error("plan frame without a request");
          handle_plan(conn, id, env);
        } else if (type == "calibrate") {
          if (env.table.absent())
            throw std::runtime_error("calibrate frame without a table");
          handle_calibrate(conn, id, env.table.is_null() ? std::string_view()
                                                         : env.table.bytes);
        } else {
          throw std::runtime_error("unknown request type '" + type + "'");
        }
      } catch (const std::exception& ex) {
        protocol_errors->inc();
        if (!conn->send(error_response("error", id,
                                       api::PlanErrorCode::kInvalidRequest,
                                       ex.what())))
          return;
      }
    }
  }

  /// The hit path: serves a client-computed key straight from the cache
  /// (DESIGN.md §12). The key only selects which artifact the client
  /// reads — every insert is keyed by the engine from a parsed request —
  /// so a wrong key can cost its sender a miss, never poison the cache.
  /// A key minted under another calibration hash is never served: the
  /// answer is plan:null with the active hash, which the client adopts.
  /// A miss counts nothing; the plan frame that follows it is the request.
  void handle_lookup(const std::shared_ptr<Connection>& conn,
                     std::int64_t id, const Envelope& env) {
    const std::uint64_t t0 = obs::trace_now_us();
    const std::string tenant =
        env.tenant.absent() ? std::string() : env.tenant.string();
    const auto key = util::Digest128::from_hex(env.key.string());
    if (!key)
      throw std::runtime_error("lookup key is not 32 lowercase hex digits");
    const std::string calibration = env.calibration.string();
    const bool probe = env.probe.boolean();
    const std::string active = engine->calibration_hash();
    // (engine->lookup_cached emits the "engine.cache_lookup" span.) The
    // entry's memoized bytes are spliced verbatim: each cached outcome is
    // serialized by its first hit only.
    std::shared_ptr<const cache::CachedOutcome> hit;
    if (calibration == active)
      hit = engine->lookup_cached(cache::RequestKey{*key}, probe);
    if (hit) {
      requests->inc();
      std::lock_guard<std::mutex> lock(queue_mu);
      tenant_queue(tenant).hits++;
    }
    if (hit && !hit->outcome().has_value()) {
      conn->send(response("lookup", id, false, "error", hit->json()));
    } else {
      conn->send(write_envelope("lookup", id, [&](Writer& w) {
        w.key("ok"); w.value(true);
        w.key("calibration"); w.value(active);
        w.key("plan");
        if (hit) {
          w.raw(hit->json());
        } else {
          w.null();
        }
      }));
    }
    if (!hit) return;
    hit_seconds->observe(static_cast<double>(obs::trace_now_us() - t0) *
                         1e-6);
    obs::emit_complete("pland.hit", "pland", t0, obs::trace_now_us());
  }

  /// A request by value: admission control, then the tenant's queue. The
  /// model-sized work (parse, keying, search) belongs to the plan
  /// workers; this thread only decides admission and hands the bytes on.
  void handle_plan(const std::shared_ptr<Connection>& conn, std::int64_t id,
                   const Envelope& env) {
    requests->inc();
    const std::string tenant =
        env.tenant.absent() ? std::string() : env.tenant.string();
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      TenantQueue& q = tenant_queue(tenant);
      if (q.jobs.size() >= options.max_queue_per_tenant) {
        q.shed++;
        shed->inc();
        obs::emit_instant("pland.shed", "pland");
        conn->send(error_response(
            "plan", id, api::PlanErrorCode::kOverloaded,
            "tenant '" + tenant + "' planning queue is full (" +
                std::to_string(q.jobs.size()) + " queued); retry later",
            options.retry_after));
        return;
      }
      // A tenant whose queue drained keeps its last pass, which falls
      // behind virtual_time while it idles. Clamp on re-entry: idle time
      // must never bank into a burst credit that would serve this tenant
      // exclusively until its stale pass catches up.
      if (q.jobs.empty()) q.pass = std::max(q.pass, virtual_time);
      q.admitted++;
      q.jobs.push_back(Job{conn, id, std::string(env.request.bytes), tenant,
                           obs::trace_now_us()});
    }
    queue_cv.notify_one();
  }

  /// Installs (empty span / JSON null clears) a CalibrationTable node-wide:
  /// requests are keyed and searched under it from here on, and plans
  /// cached under the previous hash become repair seeds (DESIGN.md §13).
  void handle_calibrate(const std::shared_ptr<Connection>& conn,
                        std::int64_t id, std::string_view table_span) {
    std::shared_ptr<const calib::CalibrationTable> table;
    if (!table_span.empty())
      table = std::make_shared<const calib::CalibrationTable>(
          calib::CalibrationTable::from_json(table_span));  // throws -> error
    engine->set_calibration(table);
    conn->send(write_envelope("calibrate", id, [&](Writer& w) {
      w.key("ok"); w.value(true);
      w.key("calibration"); w.value(engine->calibration_hash());
      w.key("calibration_version");
      w.value(table ? static_cast<std::int64_t>(table->version)
                    : std::int64_t{0});
    }));
  }

  void worker_loop() {
    // Plan workers run at SCHED_IDLE: CFS preempts an idle-policy task
    // UNCONDITIONALLY when a normal task wakes, so a reader thread
    // answering a warm hit never waits out the wakeup-preemption
    // granularity (a few ms) behind a long anneal — that granularity is
    // exactly the cross-tenant p99 tail on a single core, and niceness
    // alone cannot remove it. Searches still run at full speed whenever
    // warm traffic sleeps. Per-thread (pid 0 = calling thread); a nice
    // delta of 10 is kept as a fallback for kernels where the policy
    // switch is refused. Lowering priority needs no privilege, and
    // failure means less isolation, not less service.
    //
    // A request with limits searches on the Engine's pool (plan_async).
    // Those pool threads run at this policy only because a new thread
    // inherits its creator's, and a plan worker was the first to call
    // Engine::ensure_workers: an accident of which thread asked first
    // (Daemon.BoundedRemoteSearchesRunAtThePlanWorkersPolicy pins it).
    struct sched_param sp = {};
    if (::sched_setscheduler(0, SCHED_IDLE, &sp) != 0)
      ::sched_setscheduler(0, SCHED_BATCH, &sp);
    ::setpriority(PRIO_PROCESS, 0, ::getpriority(PRIO_PROCESS, 0) + 10);
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock, [this] {
          if (stopping.load(std::memory_order_relaxed)) return true;
          for (const auto& [name, q] : tenants)
            if (!q.jobs.empty()) return true;
          return false;
        });
        if (stopping.load(std::memory_order_relaxed)) return;
        TenantQueue* pick = nullptr;
        for (auto& [name, q] : tenants)
          if (!q.jobs.empty() && (!pick || q.pass < pick->pass)) pick = &q;
        job = std::move(pick->jobs.front());
        pick->jobs.pop_front();
        virtual_time = pick->pass;
        pick->pass += 1.0 / pick->weight;
        if (job.conn->broken.load(std::memory_order_relaxed)) {
          pick->completed++;  // nobody is left to answer: no search
          continue;
        }
      }
      // Queue wait = admission to dequeue, emitted here from the reader
      // thread's enqueue timestamp (the cross-thread emit_complete shape).
      const std::uint64_t dequeue_us = obs::trace_now_us();
      queue_wait_seconds->observe(
          static_cast<double>(dequeue_us - job.enqueue_us) * 1e-6);
      obs::emit_complete("pland.queue_wait", "pland", job.enqueue_us,
                         dequeue_us);
      obs::Span miss_span("pland.plan_miss", "pland");
      // The request parses from its exact wire bytes, here at idle
      // priority, never on a reader thread.
      obs::Span req_parse_span("request.parse", "pland");
      const std::uint64_t parse_us = obs::trace_now_us();
      auto parsed = api::request_from_json(job.raw_request);
      request_parse_seconds->observe(
          static_cast<double>(obs::trace_now_us() - parse_us) * 1e-6);
      req_parse_span.end();
      // A request that does not parse is answered with its own error.
      // Cached answers (a plan inserted since this client's lookup missed,
      // or a client that skipped the lookup) settle inside plan() without
      // a search; otherwise the search runs on this worker thread —
      // in-process single-flight collapses identical concurrent misses,
      // DiskStore claim files collapse them fleet-wide.
      const api::Expected<api::Plan, api::PlanError> outcome =
          parsed ? engine->plan(*parsed) : parsed.error();
      // Counted BEFORE the response goes out: a client that reacts to its
      // plan by reading stats must observe the completion.
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        tenants[job.tenant].completed++;
      }
      {
        obs::Span respond_span("pland.respond", "pland");
        job.conn->send(plan_response(job.id, outcome));
      }
      miss_seconds->observe(
          static_cast<double>(obs::trace_now_us() - job.enqueue_us) * 1e-6);
      miss_span.end();
      flush_trace();
    }
  }

  DaemonStats collect_stats() const {
    DaemonStats s;
    // Effects before causes (counters increment with release, read here
    // with acquire): shed/protocol_errors before requests before
    // connections, so `shed <= requests <= connections` holds in every
    // snapshot even while a storm is incrementing concurrently.
    s.protocol_errors = protocol_errors->value();
    s.shed = shed->value();
    s.requests = requests->value();
    s.connections = connections->value();
    s.engine = engine->stats();
    s.cache = engine->cache_stats();
    if (cache::DiskStore* disk = engine->plan_cache().disk()) {
      const auto claims = disk->claim_stats();
      s.claims_won = claims.claims_won;
      s.claims_lost = claims.claims_lost;
    }
    s.calibration = engine->calibration_hash();
    if (const auto table = engine->calibration())
      s.calibration_version = table->version;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      for (const auto& [name, q] : tenants)
        s.tenants.push_back(TenantStats{name, q.admitted, q.completed, q.shed,
                                        q.hits, q.jobs.size()});
    }
    return s;
  }
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      engine_(api::Engine::create(options_.engine)),
      impl_(std::make_unique<Impl>(options_, engine_)) {}

Daemon::~Daemon() { stop(); }

bool Daemon::running() const {
  std::lock_guard<std::mutex> lock(impl_->state_mu);
  return impl_->started && !impl_->stopped;
}

bool Daemon::start() {
  sockaddr_un addr{};
  if (!fill_addr(options_.socket_path, &addr)) return false;

  // The probe-unlink-bind sequence below is racy on its own: two daemons
  // starting together can both see the probe refused, both unlink, and
  // the second bind steals the path from the first. An exclusive flock on
  // a sidecar lock file, held for the daemon's lifetime, serializes the
  // whole sequence. Best-effort on open failure (bind would fail on such
  // a filesystem anyway); a flock conflict is a definitive "another
  // daemon owns this path".
  const std::string lock_path = options_.socket_path + ".lock";
  impl_->lock_fd =
      ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0600);
  if (impl_->lock_fd >= 0 &&
      ::flock(impl_->lock_fd, LOCK_EX | LOCK_NB) != 0) {
    impl_->release_lock();
    return false;  // another daemon is starting or serving here
  }

  // A socket file can outlive its daemon (crash, SIGKILL). Probe it: a
  // connectable path means a live daemon owns it (e.g. one started before
  // lock files existed) — refuse; a refused connection means it is stale
  // — reclaim it.
  const auto* sa = reinterpret_cast<const sockaddr*>(&addr);
  const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const bool live = probe >= 0 && ::connect(probe, sa, sizeof addr) == 0;
  if (probe >= 0) ::close(probe);
  if (!live) ::unlink(options_.socket_path.c_str());

  impl_->listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (live || impl_->listen_fd < 0 ||
      ::bind(impl_->listen_fd, sa, sizeof addr) != 0 ||
      ::listen(impl_->listen_fd, 64) != 0) {
    if (impl_->listen_fd >= 0) ::close(impl_->listen_fd);
    impl_->listen_fd = -1;
    impl_->release_lock();
    return false;
  }

  {
    std::lock_guard<std::mutex> lock(impl_->state_mu);
    impl_->started = true;
  }

  if (!options_.trace_dir.empty()) {
    ::mkdir(options_.trace_dir.c_str(), 0755);  // best-effort
    obs::discard_trace();  // a clean ring: no pre-start events in plan-0
    obs::set_tracing_enabled(true);
  }

  std::size_t n = options_.num_workers;
  if (n == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    n = std::clamp<std::size_t>(hw == 0 ? 2 : hw, 2, 8);
  }
  impl_->worker_threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    impl_->worker_threads.emplace_back(
        [impl = impl_.get()] { impl->worker_loop(); });
  impl_->accept_thread =
      std::thread([impl = impl_.get()] { impl->accept_loop(); });
  return true;
}

void Daemon::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->state_mu);
    if (!impl_->started || impl_->stopped) {
      impl_->stopped = true;
      impl_->state_cv.notify_all();
      return;
    }
  }
  {
    // Under queue_mu: a plan worker between its wait predicate and its
    // wait would otherwise miss both the flag and the notify, and the
    // join below would hang on it.
    std::lock_guard<std::mutex> lock(impl_->queue_mu);
    impl_->stopping.store(true, std::memory_order_relaxed);
  }
  impl_->queue_cv.notify_all();

  // Shutting the listening socket down ends the accept loop's accept().
  ::shutdown(impl_->listen_fd, SHUT_RDWR);
  impl_->accept_thread.join();
  ::close(impl_->listen_fd);
  impl_->listen_fd = -1;
  ::unlink(options_.socket_path.c_str());
  impl_->release_lock();  // a later daemon may serve this path again

  // Wake every reader: shutdown() ends its read_frame (or a send it is
  // blocked in), and each erases itself from the set as its last act.
  {
    std::unique_lock<std::mutex> lock(impl_->conns_mu);
    for (Connection* conn : impl_->conns) ::shutdown(conn->fd, SHUT_RDWR);
    impl_->conns_cv.wait(lock, [this] { return impl_->conns.empty(); });
  }
  for (auto& t : impl_->worker_threads)
    if (t.joinable()) t.join();

  // Settle misses still queued: their clients are owed a response. Sends
  // to the connections shut down above fail at once — the client sees
  // kUnavailable or a closed socket either way.
  {
    std::lock_guard<std::mutex> lock(impl_->queue_mu);
    for (auto& [name, q] : impl_->tenants) {
      for (const Impl::Job& job : q.jobs)
        job.conn->send(error_response(
            "plan", job.id, api::PlanErrorCode::kUnavailable,
            "daemon shutting down before the search started"));
      q.jobs.clear();
    }
  }

  if (!options_.trace_dir.empty()) {
    obs::set_tracing_enabled(false);
    impl_->flush_trace();  // tail events with no completed miss after them
  }

  {
    std::lock_guard<std::mutex> lock(impl_->state_mu);
    impl_->stopped = true;
  }
  impl_->state_cv.notify_all();
}

void Daemon::wait() {
  {
    std::unique_lock<std::mutex> lock(impl_->state_mu);
    // Polling (not pure wait) so an async-signal-safe stop request — a
    // bare atomic store from a signal handler, no notify — still lands.
    while (!impl_->stopped &&
           !impl_->stop_requested.load(std::memory_order_relaxed))
      impl_->state_cv.wait_for(lock, std::chrono::milliseconds(100));
    if (impl_->stopped) return;
  }
  stop();
}

void Daemon::request_stop_from_signal() {
  impl_->stop_requested.store(true, std::memory_order_relaxed);
}

DaemonStats Daemon::stats() const { return impl_->collect_stats(); }

std::size_t Daemon::open_connections() const {
  std::lock_guard<std::mutex> lock(impl_->conns_mu);
  return impl_->conns.size();
}

}  // namespace karma::pland
