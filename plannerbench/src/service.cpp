#include "plannerbench/src/service.h"

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "plannerbench/src/reference.h"
#include "src/api/engine.h"
#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/calib/repair.h"
#include "src/calib/table.h"
#include "src/core/distributed.h"
#include "src/core/schedule_gen.h"
#include "src/obs/metrics.h"
#include "src/place/fleet_planner.h"
#include "src/place/placement.h"
#include "src/pland/protocol.h"
#include "src/sim/engine.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace plannerbench {

using namespace karma;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void fail(Samples& s, const std::string& what) {
  static std::atomic<int> reported{0};
  ++s.failed;
  if (reported.fetch_add(1) < 10)
    std::fprintf(stderr, "plannerbench: FAILED %s\n", what.c_str());
}

/// Empty when `plan` is structurally valid and Plan::simulate() reproduces
/// its iteration time bit-exactly; otherwise what is wrong. What
/// "reproduces" means follows how each kind's planner derives the time:
///   single  — the replay's makespan;
///   data-parallel — the span between the last two iterations' final ops
///           (and the first iteration's end for first_iteration_time);
///   fleet   — the replay is the straggler's schedule: its makespan is that
///           node's planned time, and the fleet time is the placement's.
std::string check_plan(const api::Plan& plan, Kind kind) {
  sim::ExecutionTrace trace;
  try {
    sim::validate_plan(plan.schedule);
    trace = plan.simulate();
  } catch (const std::exception& e) {
    return std::string("invalid plan: ") + e.what();
  }
  switch (kind) {
    case Kind::kSingle:
      if (trace.makespan != plan.iteration_time)
        return "simulate() makespan differs from iteration_time";
      break;
    case Kind::kDistributed: {
      std::vector<double> ends;
      for (const sim::OpRecord& r : trace.records) {
        const auto it = static_cast<std::size_t>(r.iteration);
        if (ends.size() <= it) ends.resize(it + 1, 0.0);
        ends[it] = std::max(ends[it], r.end);
      }
      if (ends.empty()) return "distributed replay recorded no ops";
      const double steady =
          ends.size() > 1 ? ends.back() - ends[ends.size() - 2] : ends.front();
      if (steady != plan.iteration_time ||
          ends.front() != plan.first_iteration_time)
        return "distributed replay differs from iteration_time";
      break;
    }
    case Kind::kFleet: {
      if (!plan.placement) return "fleet plan without a placement";
      const place::PlacementPlan& p = *plan.placement;
      if (p.straggler < 0 ||
          static_cast<std::size_t>(p.straggler) >= p.nodes.size())
        return "fleet plan without a straggler";
      if (trace.makespan !=
              p.nodes[static_cast<std::size_t>(p.straggler)].plan_iteration_time ||
          plan.iteration_time != p.iteration_time)
        return "fleet replay differs from the straggler's planned time";
      break;
    }
  }
  return {};
}

std::string request_envelope(const std::string& request_json) {
  util::json::Writer w;
  w.begin_object();
  w.key("v"); w.value(pland::kProtocolVersion);
  w.key("type"); w.value("plan");
  w.key("id"); w.value(1);
  w.key("tenant"); w.value("plannerbench");
  w.key("request"); w.raw(request_json);
  w.end_object();
  return w.take();
}

std::string plan_envelope(const std::string& plan_json) {
  util::json::Writer w;
  w.begin_object();
  w.key("v"); w.value(pland::kProtocolVersion);
  w.key("type"); w.value("plan");
  w.key("id"); w.value(1);
  w.key("ok"); w.value(true);
  w.key("plan"); w.raw(plan_json);
  w.end_object();
  return w.take();
}

/// A socketpair with a relay thread that reads each frame and answers a
/// one-byte frame: one write_frame/read_frame exchange of a payload, the
/// transport share of a daemon round trip at that envelope size.
class FrameRelay {
 public:
  FrameRelay() {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds_) != 0)
      throw std::runtime_error("socketpair failed");
    relay_ = std::thread([fd = fds_[1]] {
      std::string payload;
      while (pland::read_frame(fd, &payload) == pland::ReadStatus::kOk)
        if (!pland::write_frame(fd, "k")) break;
    });
  }
  ~FrameRelay() {
    ::shutdown(fds_[0], SHUT_RDWR);
    relay_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  FrameRelay(const FrameRelay&) = delete;
  FrameRelay& operator=(const FrameRelay&) = delete;

  bool exchange(std::string_view payload) {
    std::string ack;
    return pland::write_frame(fds_[0], payload) &&
           pland::read_frame(fds_[0], &ack) == pland::ReadStatus::kOk;
  }

 private:
  int fds_[2] = {-1, -1};
  std::thread relay_;
};

/// Per-thread tools of the traced run.
struct TraceTools {
  FrameRelay relay;
  cache::PlanCache insert_cache;  ///< disk-backed, for the insert probe

  explicit TraceTools(const std::string& dir)
      : insert_cache([&] {
          cache::PlanCache::Options o;
          o.memory_capacity_bytes = 0;  // disk level only
          o.dir = dir;
          return o;
        }()) {}
};

class Runner {
 public:
  Runner(const Inputs& in, const Recipe& recipe, double seconds,
         Service& svc, const std::string& dir, Tracer* tracer,
         const std::function<void()>& between_epochs)
      : in_(in), recipe_(recipe), seconds_(seconds), svc_(svc), dir_(dir),
        tracer_(tracer), between_epochs_(between_epochs),
        artifacts_(in.hot.size()), keys_(in.hot.size()) {}

  Samples run() {
    std::unique_ptr<TraceTools> tools;
    if (tracer_) tools = std::make_unique<TraceTools>(dir_ + "/insert-main");
    tools_ = tools.get();

    prewarm();
    const int epochs = epochs_for(seconds_);
    const double start = now_s();
    for (int e = 0; e < epochs; ++e) {
      if (e > 0 && between_epochs_) between_epochs_();
      epoch(e, start + seconds_ * (e + 1) / epochs);
    }

    s_.stats = svc_.daemon().stats();
    const api::EngineStats cold = svc_.cold_engine().stats();
    s_.stats.engine.searches += cold.searches;
    s_.stats.engine.flights_joined += cold.flights_joined;
    const auto h = svc_.engine().metrics()->histogram("pland.queue_wait_seconds");
    s_.queue_wait_ms = 1e3 * h->snapshot().percentile(50.0);
    if (s_.stats.engine.searches != s_.expected_searches)
      fail(s_, "engine ran " + std::to_string(s_.stats.engine.searches) +
                   " searches for " + std::to_string(s_.expected_searches) +
                   " distinct misses");
    ++s_.attempted;  // the exactly-one-search-per-miss check
    return std::move(s_);
  }

 private:
  // ---- Measured calls -------------------------------------------------

  /// In-process cold search of `req` (+ the re-request hit). `hot` indexes
  /// the hot set for a prewarm plan on the daemon's engine: its artifact is
  /// kept, and it belongs to the seed-determined set rather than to the
  /// cold_ms samples. -1 for a cold-stream request of cold template
  /// `template_id` on the cold-search engine.
  void cold_plan(const Template& t, const api::PlanRequest& req, long hot,
                 std::size_t template_id = 0) {
    api::Engine& engine = hot >= 0 ? svc_.engine() : svc_.cold_engine();
    ++s_.attempted;
    ++s_.expected_searches;
    Span root(tracer_, "plan.cold", tracer_ ? tracer_->next_request() : 0);
    std::optional<api::Expected<api::Plan, api::PlanError>> out;
    double wall = 0.0, cpu = 0.0;
    const double ref = machine_reference_us();
    {
      Span e2e(root, "e2e");
      const double c0 = cpu_s(), t0 = now_s();
      out.emplace(engine.plan(req));
      wall = now_s() - t0;
      cpu = cpu_s() - c0;
    }
    if (!out->has_value()) {
      fail(s_, t.label + " plan.cold: " + out->error().describe());
      return;
    }
    const api::Plan& plan = out->value();
    if (hot < 0) s_.cold_ms.add(1e3 * wall, ref, template_id);
    if (const std::string why = check_plan(plan, t.kind); !why.empty())
      fail(s_, t.label + " plan.cold: " + why);
    if (hot >= 0) {
      s_.plan_ops.push_back(static_cast<double>(plan.schedule.ops.size()));
      quality(s_, "hot:", t, plan);
      if (t.kind == Kind::kSingle) {
        s_.searches.push_back(plan.search_stats);
        s_.search_cpu_ms.push_back(1e3 * cpu);
      }
    }
    if (root.on()) replay_cold(root, engine, t, req, plan);
    root.end();

    std::string artifact = plan.to_json();
    if (hot >= 0) {
      artifacts_[static_cast<std::size_t>(hot)] = artifact;
      keys_[static_cast<std::size_t>(hot)] = engine.key_for(req);
    }
    inproc_hit(engine, t, req, artifact, false);
  }

  /// In-process hit through `engine`.plan; the artifact must be
  /// byte-identical to `artifact`. `timed` = a hot-set hit whose latency is
  /// a hit_us sample.
  void inproc_hit(api::Engine& engine, const Template& t,
                  const api::PlanRequest& req, const std::string& artifact,
                  bool timed = true) {
    ++s_.attempted;
    Span root(tracer_, timed ? "hit.inproc" : "hit.recheck",
              tracer_ ? tracer_->next_request() : 0);
    std::optional<api::Expected<api::Plan, api::PlanError>> out;
    double wall = 0.0;
    const double ref = host_reference_us();
    {
      Span e2e(root, "e2e");
      const double t0 = now_s();
      out.emplace(engine.plan(req));
      wall = now_s() - t0;
    }
    if (root.on()) {
      Span layers(root, "layers");
      cache::RequestKey key;
      {
        Span s(layers, "cache.request_key");
        key = engine.key_for(req);
      }
      Span s(layers, "cache.lookup");
      engine.try_cached(key, req.probe_feasible_batch);
    }
    root.end();
    if (!out->has_value()) {
      fail(s_, t.label + " hit: " + out->error().describe());
      return;
    }
    if (timed) s_.hit_us.add(1e6 * wall, ref);
    if (out->value().to_json() != artifact)
      fail(s_, t.label + ": in-process hit differs from the first artifact");
  }

  /// Socket hit of hot request `i` on `session` (idle or busy), checked
  /// against the key's first artifact; its sample carries `ref` (0 when the
  /// caller sets the reference after the phase).
  void socket_hit(Samples& s, api::RemoteSession& session, std::size_t i,
                  Series& into, double ref, const char* path,
                  TraceTools* tools) {
    const Template& t = in_.hot[i];
    ++s.attempted;
    Span root(tracer_, path, tracer_ ? tracer_->next_request() : 0);
    std::optional<api::Expected<std::string, api::PlanError>> out;
    double wall = 0.0;
    {
      Span e2e(root, "e2e");
      const double t0 = now_s();
      out.emplace(session.plan_raw(t.request));
      wall = now_s() - t0;
    }
    if (!out->has_value()) {
      root.end();
      fail(s, t.label + " socket hit: " + out->error().describe());
      return;
    }
    if (root.on()) replay_socket_hit(root, session, t.request, keys_[i],
                                     out->value(), *tools);
    root.end();
    into.add(1e6 * wall, ref);
    if (out->value() != artifacts_[i])
      fail(s, t.label + ": socket hit differs from the first artifact");
  }

  /// A plan the daemon searches for a socket request (batch miss, fleet,
  /// repair); its sample carries `ref` like socket_hit's. Returns the
  /// parsed plan when it arrived and checks out.
  std::optional<api::Plan> socket_plan(Samples& s,
                                       api::RemoteSession& session,
                                       const Template& t,
                                       const api::PlanRequest& req,
                                       Series& into, double ref,
                                       const char* path, TraceTools* tools,
                                       std::size_t template_id,
                                       std::string* raw_out = nullptr,
                                       const api::Plan* repair_seed = nullptr) {
    ++s.attempted;
    ++s.expected_searches;
    Span root(tracer_, path, tracer_ ? tracer_->next_request() : 0);
    std::optional<api::Expected<std::string, api::PlanError>> out;
    double wall = 0.0;
    {
      Span e2e(root, "e2e");
      const double t0 = now_s();
      out.emplace(session.plan_raw(req));
      wall = now_s() - t0;
    }
    if (!out->has_value()) {
      root.end();
      fail(s, t.label + " " + path + ": " + out->error().describe());
      return std::nullopt;
    }
    into.add(1e3 * wall, ref, template_id);
    auto plan = api::plan_from_json(out->value());
    if (!plan.has_value()) {
      root.end();
      fail(s, t.label + ": artifact does not parse: " + plan.error().describe());
      return std::nullopt;
    }
    if (root.on())
      replay_socket_plan(s, root, t, req, plan.value(), repair_seed, *tools);
    root.end();
    if (const std::string why = check_plan(plan.value(), t.kind); !why.empty()) {
      fail(s, t.label + " " + path + ": " + why);
      return std::nullopt;
    }
    if (raw_out) *raw_out = out->value();
    return std::move(plan).value();
  }

  /// Records the simulated training throughput of `plan` under `path`.
  static void quality(Samples& s, const char* path, const Template& t,
                      const api::Plan& plan) {
    s.samples_per_s[path + t.label].push_back(
        static_cast<double>(t.samples_per_iteration) / plan.iteration_time);
  }

  // ---- Phases ---------------------------------------------------------

  void prewarm() {
    for (std::size_t i = 0; i < in_.hot.size(); ++i)
      cold_plan(in_.hot[i], in_.hot[i].request, static_cast<long>(i));
    // First sight over the socket: the daemon parses each request once
    // and memoizes its wire bytes -> key; later repeats are hits.
    for (std::size_t i = 0; i < in_.hot.size(); ++i) {
      ++s_.attempted;
      const auto raw = svc_.main().plan_raw(in_.hot[i].request);
      if (!raw.has_value() || raw.value() != artifacts_[i])
        fail(s_, in_.hot[i].label + ": first socket answer differs");
    }
  }

  /// In-process cold searches from where the cold stream left off: at
  /// least `min_count`, then more until `end`.
  void cold_phase(std::size_t min_count, double end) {
    for (std::size_t n = 0; cold_pos_ < in_.cold_stream.size() &&
                            (n < min_count || now_s() < end);
         ++n) {
      const Issue& issue = in_.cold_stream[cold_pos_++];
      const Template& t = in_.cold[issue.index];
      cold_plan(t, materialize(t, issue.planner_seed), -1, issue.index);
    }
  }

  /// In-process hits over the hot set, replayed in seeded order: at least
  /// `min_count`, then more until `end`.
  void hit_phase(std::size_t min_count, double end) {
    for (std::size_t n = 0; n < min_count || now_s() < end; ++n) {
      const std::size_t i = in_.hit_order[hit_pos_++ % in_.hit_order.size()];
      inproc_hit(svc_.engine(), in_.hot[i], in_.hot[i].request, artifacts_[i]);
    }
  }

  /// Idle socket hits, same order and bounds.
  void socket_phase(std::size_t min_count, double end) {
    for (std::size_t n = 0; n < min_count || now_s() < end; ++n) {
      const std::size_t i = in_.hit_order[hit_pos_++ % in_.hit_order.size()];
      socket_hit(s_, svc_.main(), i, s_.socket_hit_us, host_reference_us(),
                 "hit.socket", tools_);
    }
  }

  /// Epoch `e`, ending at `end`: the other phases' fixed requests first,
  /// then the workload's own traffic until `end` (see Recipe). The own
  /// traffic issues at least as much as an off-workload phase, so an epoch
  /// that overran still measures it.
  void epoch(int e, double end) {
    const std::size_t cycle = in_.hot.size();
    const std::size_t off_hits = kOffHitCycles * cycle;
    if (recipe_.main != Traffic::kCold) cold_phase(kOffCold, 0.0);
    if (recipe_.main != Traffic::kHits) {
      hit_phase(off_hits, 0.0);
      socket_phase(off_hits, 0.0);
    }
    calibrate(e);
    if (recipe_.main != Traffic::kReplan) busy(e, 0.0);

    switch (recipe_.main) {
      case Traffic::kHits: {
        const double now = now_s();
        hit_phase(off_hits, now + 0.5 * (end - now));
        socket_phase(off_hits, end);
        break;
      }
      case Traffic::kCold:
        cold_phase(kOffCold, end);
        break;
      case Traffic::kReplan:
        busy(e, end);
        break;
    }
  }

  /// A fresh seeded table re-keys every request; then the hot set again:
  /// each request repairs its superseded plan.
  void calibrate(int e) {
    const std::string& table_json = in_.tables[static_cast<std::size_t>(e)];
    ++s_.attempted;
    const auto hash = svc_.main().calibrate(table_json);
    if (!hash.has_value() || hash.value().empty()) {
      fail(s_, "calibrate was refused");
      return;
    }
    table_ = std::make_shared<const calib::CalibrationTable>(
        calib::CalibrationTable::from_json(table_json));

    for (std::size_t i = 0; i < in_.hot.size(); ++i) {
      const Template& t = in_.hot[i];
      const auto seed = api::plan_from_json(artifacts_[i]);
      std::string raw;
      const auto plan = socket_plan(
          s_, svc_.main(), t, t.request, s_.repair_ms, machine_reference_us(),
          "plan.repair", tools_, i, &raw,
          seed.has_value() ? &seed.value() : nullptr);
      if (!plan) continue;
      quality(s_, "hot:", t, *plan);
      artifacts_[i] = raw;
      keys_[i] = svc_.engine().key_for(t.request);
      // The repaired entry is fresh in the memory LRU, so it still carries
      // the search's own counters.
      ++s_.attempted;
      const auto cached = svc_.engine().try_cached(keys_[i], false);
      if (!cached || !cached->has_value() ||
          !cached->value().search_stats.warm_started)
        fail(s_, t.label + ": re-request after calibrate did not repair");
    }
  }

  /// The interactive client makes Zipf-skewed hits over the repaired hot
  /// set while the batch client streams cold misses and fleet plans: at
  /// least kBatchMin of them, then more until `end`.
  void busy(int e, double end) {
    // Reference passes run only while both clients are stopped, so the
    // load they put on the host does not cancel out of their latencies:
    // the phase's samples take the mean of the passes before and after.
    const double host_before = host_reference_us();
    const double machine_before = machine_reference_us();
    const std::size_t miss_from = s_.miss_ms.raw.size();
    const std::size_t fleet_from = s_.fleet_ms.raw.size();

    const std::vector<Issue>& stream =
        in_.batch_streams[static_cast<std::size_t>(e)];
    std::atomic<bool> batch_done{false};
    Samples interactive_samples;
    std::jthread interactive([&] {
      std::unique_ptr<TraceTools> tools;
      if (tracer_)
        tools = std::make_unique<TraceTools>(dir_ + "/insert-interactive");
      while (!batch_done.load(std::memory_order_acquire)) {
        const std::size_t pos = zipf_pos_++ % in_.zipf_order.size();
        const std::size_t i = in_.zipf_order[pos];
        socket_hit(interactive_samples, svc_.interactive(), i,
                   interactive_samples.busy_hit_us, 0.0, "hit.busy",
                   tools.get());
      }
    });

    std::unique_ptr<TraceTools> tools;
    if (tracer_) tools = std::make_unique<TraceTools>(dir_ + "/insert-batch");
    for (std::size_t j = 0; j < stream.size(); ++j) {
      if (j >= kBatchMin && now_s() >= end) break;
      const bool deterministic = j < kBatchMin;
      const Issue& issue = stream[j];
      const Template& t = issue.fleet ? in_.fleet[issue.index]
                                      : in_.cold[issue.index];
      const api::PlanRequest req = materialize(t, issue.planner_seed);
      const auto plan = socket_plan(
          s_, svc_.batch(), t, req, issue.fleet ? s_.fleet_ms : s_.miss_ms,
          0.0, issue.fleet ? "plan.fleet" : "plan.miss", tools.get(),
          issue.index);
      if (plan && deterministic) quality(s_, "batch:", t, *plan);
    }
    batch_done.store(true, std::memory_order_release);
    interactive.join();

    const double host_ref = 0.5 * (host_before + host_reference_us());
    const double machine_ref = 0.5 * (machine_before + machine_reference_us());
    interactive_samples.busy_hit_us.set_reference(0, host_ref);
    s_.miss_ms.set_reference(miss_from, machine_ref);
    s_.fleet_ms.set_reference(fleet_from, machine_ref);
    s_.merge(std::move(interactive_samples));
  }

  // ---- Traced run: the layers of each path, call by call ----------------

  /// The device the daemon's engine searches `req` on: calibrated once a
  /// table is installed.
  sim::DeviceSpec searched_device(const api::PlanRequest& req) const {
    return table_ ? calib::apply(*table_, req.device) : req.device;
  }

  /// Search layer of `req` on `device` as the engine runs it:
  /// KarmaPlanner::plan, plan_data_parallel or plan_fleet.
  void replay_search(const Span& layers, const Template& t,
                     const api::PlanRequest& req,
                     const sim::DeviceSpec& device) const {
    switch (t.kind) {
      case Kind::kSingle: {
        Span s(layers, "core.search");
        core::KarmaPlanner(req.model, device, req.planner).plan();
        break;
      }
      case Kind::kDistributed: {
        core::DistributedOptions options = *req.distributed;
        options.planner = req.planner;
        Span s(layers, "core.distributed_plan");
        core::plan_data_parallel(req.model, device, options);
        break;
      }
      case Kind::kFleet: {
        Span s(layers, "place.plan_fleet");
        place::plan_fleet(req.model, *req.fleet, fleet_options(req));
        break;
      }
    }
  }

  static place::FleetPlanOptions fleet_options(const api::PlanRequest& req) {
    place::FleetPlanOptions o;
    o.planner = req.planner;
    o.placement.base_reserved_host = req.planner.schedule.reserved_host_bytes;
    o.placement.optimizer_state_bytes = [opt = req.optimizer](Bytes b) {
      return opt.host_state_bytes(b);
    };
    return o;
  }

  /// Layers of an in-process cold plan on `engine`, then probes of the
  /// winner. Both engines search these uncalibrated: the cold-search
  /// engine never sees a table, and the prewarm runs before the first.
  void replay_cold(const Span& root, const api::Engine& engine,
                   const Template& t, const api::PlanRequest& req,
                   const api::Plan& plan) const {
    {
      Span layers(root, "layers");
      {
        Span s(layers, "cache.request_key");
        engine.key_for(req);
      }
      replay_search(layers, t, req, req.device);
      Span s(layers, "api.plan_to_json");  // the LRU weighs entries by it
      plan.to_json();
    }
    Span probes(root, "probes");
    if (t.kind == Kind::kSingle) {
      const core::KarmaPlanner planner(req.model, req.device, req.planner);
      {
        Span s(probes, "core.evaluate");
        planner.evaluate(plan.blocks(), plan.policies, plan.schedule.strategy);
      }
      Span s(probes, "core.build_plan");
      core::build_training_plan(req.model, req.device, plan.blocks(),
                                plan.policies, plan.schedule.strategy,
                                req.planner.schedule);
    }
    {
      Span s(probes, "sim.replay");
      sim::Engine(plan.device).run(plan.schedule);
    }
    const cache::RequestKey key = cache::request_key(req, "insert-probe");
    Span s(probes, "cache.insert");
    tools_->insert_cache.insert(key, plan);
  }

  /// Client and daemon layers of one socket hit: serialize, frame, scan
  /// and digest the request span, key-addressed lookup, serialize the plan,
  /// frame it back, parse the response (RemoteSession parses it twice).
  void replay_socket_hit(const Span& root, api::RemoteSession& session,
                         const api::PlanRequest& req,
                         const cache::RequestKey& key, const std::string& raw,
                         TraceTools& tools) const {
    {
      Span layers(root, "layers");
      std::string request_json;
      {
        Span s(layers, "api.request_to_json");
        request_json = api::request_to_json(req);
      }
      const std::string envelope = request_envelope(request_json);
      {
        Span s(layers, "pland.frame_rw");
        tools.relay.exchange(envelope);
      }
      std::string_view span;
      {
        Span s(layers, "util.json.scan_member");
        span = util::json::scan_member(envelope, "request");
      }
      {
        Span s(layers, "util.digest128");
        util::digest128(span);
      }
      std::optional<api::Expected<api::Plan, api::PlanError>> hit;
      {
        Span s(layers, "cache.lookup");
        hit = svc_.engine().try_cached(key, req.probe_feasible_batch);
      }
      std::string plan_json;
      if (hit && hit->has_value()) {
        Span s(layers, "api.plan_to_json");
        plan_json = hit->value().to_json();
      }
      const std::string response = plan_envelope(plan_json.empty() ? raw : plan_json);
      {
        Span s(layers, "pland.frame_rw");
        tools.relay.exchange(response);
      }
      Span s(layers, "api.response_parse");
      util::json::parse(response);
      util::json::parse(response);
    }
    Span probes(root, "probes");
    {
      Span s(probes, "api.plan_from_json");  // what a disk hit revalidates
      api::plan_from_json(raw);
    }
    Span s(probes, "pland.ping");
    session.ping();
  }

  /// Layers of a plan the daemon searched for a socket request: the
  /// client/frame layers, the plan worker's parse and key, the search (or
  /// the repair), and the response.
  void replay_socket_plan(Samples& out, const Span& root, const Template& t,
                          const api::PlanRequest& req, const api::Plan& plan,
                          const api::Plan* repair_seed,
                          TraceTools& tools) const {
    {
      Span layers(root, "layers");
      std::string request_json;
      {
        Span s(layers, "api.request_to_json");
        request_json = api::request_to_json(req);
      }
      const std::string envelope = request_envelope(request_json);
      {
        Span s(layers, "pland.frame_rw");
        tools.relay.exchange(envelope);
      }
      std::string_view span;
      {
        Span s(layers, "util.json.scan_member");
        span = util::json::scan_member(envelope, "request");
      }
      {
        Span s(layers, "util.digest128");
        util::digest128(span);
      }
      {
        Span s(layers, "api.request_from_json");
        api::request_from_json(span);
      }
      out.parsed_request_bytes += span.size();
      {
        Span s(layers, "cache.request_key");
        svc_.engine().key_for(req);
      }
      if (repair_seed != nullptr && table_) {
        calib::RepairOptions options;
        options.planner = req.planner;
        Span s(layers, "calib.repair");
        calib::repair(req.model, req.device, *table_, repair_seed->blocks(),
                      repair_seed->policies, options);
      } else {
        replay_search(layers, t, req, searched_device(req));
      }
      std::string plan_json;
      {
        Span s(layers, "api.plan_to_json");
        plan_json = plan.to_json();
      }
      const std::string response = plan_envelope(plan_json);
      {
        Span s(layers, "pland.frame_rw");
        tools.relay.exchange(response);
      }
      Span s(layers, "api.response_parse");
      util::json::parse(response);
      util::json::parse(response);
    }
    Span probes(root, "probes");
    if (t.kind == Kind::kFleet) {
      const place::FleetPlanOptions o = fleet_options(req);
      Span s(probes, "place.place_blocks");
      place::place_blocks(
          req.model, *req.fleet,
          place::placement_blocks(req.model, o.placement.target_blocks),
          o.placement);
    }
    {
      Span s(probes, "sim.replay");
      sim::Engine(plan.device).run(plan.schedule);
    }
    const cache::RequestKey key = cache::request_key(req, "insert-probe");
    Span insert(probes, "cache.insert");
    tools.insert_cache.insert(key, plan);
  }

  const Inputs& in_;
  const Recipe& recipe_;
  double seconds_;
  Service& svc_;
  std::string dir_;
  Tracer* tracer_;
  const std::function<void()>& between_epochs_;
  TraceTools* tools_ = nullptr;
  Samples s_;
  std::vector<std::string> artifacts_;    ///< current artifact per hot key
  std::vector<cache::RequestKey> keys_;   ///< current key per hot request
  std::shared_ptr<const calib::CalibrationTable> table_;
  std::size_t hit_pos_ = 0;
  std::size_t cold_pos_ = 0;
  std::atomic<std::size_t> zipf_pos_{0};
};

template <class T>
void append(std::vector<T>& to, std::vector<T>& from) {
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
}

}  // namespace

void Samples::merge(Samples&& o) {
  for (auto [to, from] : {std::pair{&hit_us, &o.hit_us},
                          {&socket_hit_us, &o.socket_hit_us},
                          {&busy_hit_us, &o.busy_hit_us},
                          {&cold_ms, &o.cold_ms},
                          {&miss_ms, &o.miss_ms},
                          {&repair_ms, &o.repair_ms},
                          {&fleet_ms, &o.fleet_ms}}) {
    append(to->raw, from->raw);
    append(to->ref_us, from->ref_us);
    append(to->template_id, from->template_id);
  }
  for (auto& [key, values] : o.samples_per_s)
    append(samples_per_s[key], values);
  append(searches, o.searches);
  append(search_cpu_ms, o.search_cpu_ms);
  append(plan_ops, o.plan_ops);
  parsed_request_bytes += o.parsed_request_bytes;
  attempted += o.attempted;
  failed += o.failed;
  expected_searches += o.expected_searches;
  // Counters add up; the queue-wait p50 of two runs is their mean.
  if (!o.stats.tenants.empty() || o.stats.engine.searches > 0) {
    queue_wait_ms = stats.engine.searches > 0
                        ? (queue_wait_ms + o.queue_wait_ms) / 2.0
                        : o.queue_wait_ms;
    stats.shed += o.stats.shed;
    stats.engine.searches += o.stats.engine.searches;
    stats.engine.flights_joined += o.stats.engine.flights_joined;
    stats.cache.memory_hits += o.stats.cache.memory_hits;
    stats.cache.disk_hits += o.stats.cache.disk_hits;
    stats.cache.misses += o.stats.cache.misses;
    stats.cache.evictions += o.stats.cache.evictions;
    stats.cache.disk_writes += o.stats.cache.disk_writes;
    append(stats.tenants, o.stats.tenants);
  }
}

Service::Service(const Recipe& recipe, const std::string& dir) {
  std::filesystem::create_directories(dir);
  pland::DaemonOptions options;
  options.socket_path = dir + "/pland.sock";
  options.num_workers = 2;
  options.engine.cache.cache_memory_bytes = recipe.memory_bytes;
  if (recipe.disk_store) options.engine.cache.cache_dir = dir + "/store";
  daemon_ = std::make_unique<pland::Daemon>(std::move(options));
  api::EngineOptions cold;
  // Every key is distinct and each is re-requested right away, so a small
  // LRU serves the re-request and keeps peak RSS independent of how many
  // searches the run makes.
  cold.cache.cache_memory_bytes = 16ll << 20;
  cold_engine_ = api::Engine::create(std::move(cold));
  if (!daemon_->start())
    throw std::runtime_error("cannot start the daemon at " + dir);
  const auto connect = [&](const char* tenant) {
    auto session = api::RemoteSession::connect(daemon_->socket_path(), tenant);
    if (!session.has_value())
      throw std::runtime_error("cannot connect: " + session.error().describe());
    return std::move(session).value();
  };
  main_.emplace(connect("main"));
  interactive_.emplace(connect("interactive"));
  batch_.emplace(connect("batch"));
}

Service::~Service() {
  main_.reset();
  interactive_.reset();
  batch_.reset();
  // Deliberately never stopped: Daemon::stop() publishes `stopping` without
  // holding the queue mutex, so a plan worker between its wait predicate
  // and its wait misses the wakeup and stop() joins it forever. The idle
  // daemon lives until the process ends (main leaves through _Exit).
  daemon_.release();
}

Samples run_workload(const Inputs& inputs, const Recipe& recipe,
                     double seconds, Service& service, const std::string& dir,
                     Tracer* tracer,
                     const std::function<void()>& between_epochs) {
  Runner runner(inputs, recipe, seconds, service, dir, tracer, between_epochs);
  return runner.run();
}

}  // namespace plannerbench
