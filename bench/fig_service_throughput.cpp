// Multi-tenant planning service throughput (DESIGN.md §11–12): K
// concurrent tenants against one karma::api::Engine, then against a
// karma-pland daemon over its unix socket.
//
//   $ ./bench_fig_service_throughput [tenants] [anneal]
//
// Engine phases (ISSUE 5 gates):
//   all-hot storm — every tenant submits the SAME cold request at once.
//                   Single-flight collapses the storm into ONE search;
//                   the aggregate speedup over tenants-many independent
//                   searches is the dedup win.
//   mixed hot/cold — each tenant alternates between a shared hot request
//                   and a private cold one; prints aggregate throughput
//                   and the cache/flight counters behind it.
//   cancel/deadline latency — how fast cancel() and a deadline settle a
//                   deep-anneal request (the < 100 ms service guarantee).
//
// Daemon phases (ISSUE 6 gates) — an in-process karma-pland serving
// RemoteSessions over a real unix socket:
//   daemon storm  — N clients submit one cold request: exactly 1 search
//                   fleet-wide, byte-identical artifacts.
//   hit latency   — warm hit-path round trips; gate: median < 500 us.
//   overload shed — a flood of unique cold requests against a bounded
//                   queue: sheds arrive as kOverloaded + retry_after.
//   fairness      — one tenant's cold storm must not raise another
//                   tenant's hot-hit p99 by more than 2x.
// The daemon-phase numbers are published as BENCH_service.json (the CI
// artifact): hit-path latency percentiles, dedup factor, shed rate,
// fairness ratio.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/api/remote_session.h"
#include "src/cache/plan_cache.h"
#include "src/pland/daemon.h"
#include "src/util/json.h"

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double now_us() { return 1000.0 * now_ms(); }

karma::api::PlanRequest resnet_request(std::int64_t batch, int anneal) {
  karma::api::PlanRequest request;
  request.model = karma::graph::make_resnet50(batch);
  request.device = karma::sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal;
  request.optimizer.kind = karma::api::OptimizerSpec::Kind::kSgdMomentum;
  request.probe_feasible_batch = false;
  return request;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace karma;

  const int tenants = argc > 1 ? std::atoi(argv[1]) : 16;
  const int anneal = argc > 2 ? std::atoi(argv[2]) : 20000;
  bool pass = true;

  const std::string scratch =
      "/tmp/karma-bench-service-" + std::to_string(::getpid());
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // ---- Baseline: one cold search, nothing shared ----
  // No memory level and a fresh empty store, so an exported
  // KARMA_CACHE_DIR cannot turn the baseline warm.
  api::CacheOptions cold;
  cold.cache_memory_bytes = 0;
  cold.cache_dir = scratch + "/cold-cache";
  const api::PlanRequest hot = resnet_request(512, anneal);
  const double t0 = now_ms();
  const std::string baseline =
      api::Engine::create({cold})->plan_or_throw(hot).to_json();
  const double cold_ms = now_ms() - t0;

  bench::print_section("service throughput: " + std::to_string(tenants) +
                       " tenants, one Engine");
  std::printf("cold single-tenant search: %.1f ms (anneal %d)\n", cold_ms,
              anneal);

  // ---- Phase 1: all-hot storm (the single-flight dedup gate) ----
  {
    const auto engine = api::Engine::create();
    std::vector<std::string> artifacts(static_cast<std::size_t>(tenants));
    std::barrier sync(tenants);
    const double t1 = now_ms();
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < tenants; ++i)
        threads.emplace_back([&, i] {
          sync.arrive_and_wait();
          artifacts[static_cast<std::size_t>(i)] =
              engine->plan_or_throw(hot).to_json();
        });
    }
    const double storm_ms = now_ms() - t1;
    const api::EngineStats stats = engine->stats();
    const double aggregate_speedup =
        static_cast<double>(tenants) * cold_ms / storm_ms;
    const bool identical = std::all_of(
        artifacts.begin(), artifacts.end(),
        [&](const std::string& a) { return a == baseline; });

    std::printf("\nall-hot storm: %d x same request in %.1f ms wall\n",
                tenants, storm_ms);
    std::printf("  engine: %s\n", stats.describe().c_str());
    std::printf("  cache:  %s\n", engine->cache_stats().describe().c_str());
    std::printf("  aggregate dedup speedup: %.1fx (gate >= 5x)\n",
                aggregate_speedup);
    std::printf("  artifacts == serial baseline: %s\n",
                identical ? "yes" : "NO");
    pass = pass && stats.searches == 1 && aggregate_speedup >= 5.0 &&
           identical;
  }

  // ---- Phase 2: mixed hot/cold traffic ----
  {
    const auto engine = api::Engine::create();
    // Warm the hot entry once, as a live service would have.
    engine->plan_or_throw(hot);
    constexpr int kRequestsPerTenant = 4;
    std::barrier sync(tenants);
    const double t2 = now_ms();
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < tenants; ++i)
        threads.emplace_back([&, i] {
          sync.arrive_and_wait();
          for (int r = 0; r < kRequestsPerTenant; ++r) {
            if (r % 2 == 0) {
              engine->plan_or_throw(hot);  // shared hot key
            } else {
              // Private cold key per (tenant, round): a genuine search,
              // cheap (no anneal) so the phase stays a smoke test.
              api::PlanRequest cold_request =
                  resnet_request(128 + 32 * i + 8 * r, 0);
              engine->plan_or_throw(cold_request);
            }
          }
        });
    }
    const double mixed_ms = now_ms() - t2;
    const api::EngineStats stats = engine->stats();
    const double rps = 1000.0 * tenants * kRequestsPerTenant / mixed_ms;
    std::printf("\nmixed hot/cold: %d tenants x %d requests in %.1f ms "
                "(%.0f plans/s aggregate)\n",
                tenants, kRequestsPerTenant, mixed_ms, rps);
    std::printf("  engine: %s\n", stats.describe().c_str());
    std::printf("  cache:  %s\n", engine->cache_stats().describe().c_str());
  }

  // ---- Phase 3: cancel / deadline settle latency ----
  {
    const auto engine = api::Engine::create();
    const api::PlanRequest deep = resnet_request(512, 50'000'000);

    api::PlanFuture doomed = engine->plan_async(deep);
    while (!doomed.progress().has_best)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const double t3 = now_ms();
    doomed.cancel();
    const auto cancelled = doomed.get();
    const double cancel_ms = now_ms() - t3;
    const bool cancel_ok =
        !cancelled.has_value() &&
        cancelled.error().code == api::PlanErrorCode::kCancelled &&
        cancelled.error().partial != nullptr && cancel_ms < 100.0;
    std::printf("\ncancel() settle latency: %.2f ms (gate < 100 ms), "
                "partial plan attached: %s\n",
                cancel_ms,
                cancelled.error().partial ? "yes" : "NO");

    api::PlanRequest bounded = deep;
    bounded.limits.deadline = 0.2;
    const double t4 = now_ms();
    const auto expired = engine->plan(bounded);
    const double deadline_ms = now_ms() - t4;
    const double settle_ms = deadline_ms - 1000.0 * bounded.limits.deadline;
    const bool deadline_ok =
        !expired.has_value() &&
        expired.error().code == api::PlanErrorCode::kDeadline &&
        settle_ms < 100.0;
    std::printf("deadline(0.2s) total %.1f ms -> settle overshoot %.2f ms "
                "(gate < 100 ms), code %s\n",
                deadline_ms, settle_ms,
                api::plan_error_code_name(expired.error().code));
    pass = pass && cancel_ok && deadline_ok;
  }

  // =========================================================================
  // karma-pland daemon phases (real unix-socket round trips)
  // =========================================================================

  double dedup_factor = 0.0, shed_rate = 0.0;
  std::uint64_t storm_searches = 0, shed_offered = 0, shed_count = 0;
  bool storm_identical = false;
  double hit_p50 = 0, hit_p90 = 0, hit_p99 = 0;
  double fair_alone_p99 = 0, fair_storm_p99 = 0, fair_ratio = 0;
  const int clients = tenants;

  // ---- Phase 4: daemon cold storm (fleet dedup + byte-identity) ----
  {
    pland::DaemonOptions options;
    options.socket_path = scratch + "/storm.sock";
    options.engine.cache.cache_dir = scratch + "/storm-cache";
    pland::Daemon daemon(std::move(options));
    if (!daemon.start()) {
      std::fprintf(stderr, "cannot start daemon\n");
      return 1;
    }
    // The same request the serial baseline timed — cold for the daemon's
    // fresh engine, so the dedup factor compares like with like.
    const api::PlanRequest& cold_request = hot;
    std::vector<std::string> artifacts(static_cast<std::size_t>(clients));
    std::barrier sync(clients);
    const double t5 = now_ms();
    {
      std::vector<std::jthread> threads;
      for (int i = 0; i < clients; ++i)
        threads.emplace_back([&, i] {
          auto session = api::RemoteSession::connect(
              daemon.socket_path(), "tenant-" + std::to_string(i));
          sync.arrive_and_wait();
          if (session)
            if (auto plan = session->plan_raw(cold_request))
              artifacts[static_cast<std::size_t>(i)] = plan.value();
        });
    }
    const double storm_ms = now_ms() - t5;
    storm_searches = daemon.stats().engine.searches;
    storm_identical =
        !artifacts[0].empty() &&
        std::all_of(artifacts.begin(), artifacts.end(),
                    [&](const std::string& a) { return a == artifacts[0]; });
    dedup_factor = static_cast<double>(clients) * cold_ms / storm_ms;
    std::printf("\ndaemon cold storm: %d client connections in %.1f ms "
                "wall\n", clients, storm_ms);
    std::printf("  fleet searches: %llu (gate == 1), byte-identical: %s, "
                "dedup factor %.1fx\n",
                static_cast<unsigned long long>(storm_searches),
                storm_identical ? "yes" : "NO", dedup_factor);
    pass = pass && storm_searches == 1 && storm_identical;

    // ---- Phase 5: warm hit-path latency over the same socket ----
    {
      auto session =
          api::RemoteSession::connect(daemon.socket_path(), "latency");
      constexpr int kReps = 300;
      std::vector<double> lat_us;
      lat_us.reserve(kReps);
      if (session) {
        session->plan_raw(cold_request);  // ensure warm
        for (int r = 0; r < kReps; ++r) {
          const double t = now_us();
          if (!session->plan_raw(cold_request)) break;
          lat_us.push_back(now_us() - t);
        }
      }
      hit_p50 = percentile(lat_us, 0.50);
      hit_p90 = percentile(lat_us, 0.90);
      hit_p99 = percentile(lat_us, 0.99);
      std::printf("\nwarm hit path over the socket (%d reps): p50 %.0f us "
                  "(gate < 500), p90 %.0f us, p99 %.0f us\n",
                  kReps, hit_p50, hit_p90, hit_p99);
      pass = pass && !lat_us.empty() && hit_p50 < 500.0;
    }
    daemon.stop();
  }

  // ---- Phase 6: overload shed (bounded queue, slow worker) ----
  {
    pland::DaemonOptions options;
    options.socket_path = scratch + "/shed.sock";
    options.engine.cache.cache_dir = scratch + "/shed-cache";
    options.num_workers = 1;
    options.max_queue_per_tenant = 2;
    options.retry_after = 0.25;
    pland::Daemon daemon(std::move(options));
    if (!daemon.start()) {
      std::fprintf(stderr, "cannot start daemon\n");
      return 1;
    }
    constexpr int kFlood = 24;
    std::atomic<std::uint64_t> ok{0}, shed{0}, failed{0};
    std::barrier sync(8);
    {
      std::vector<std::jthread> threads;
      for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
          auto session = api::RemoteSession::connect(daemon.socket_path(),
                                                     "flood");
          sync.arrive_and_wait();
          for (int r = 0; r < kFlood / 8; ++r) {
            if (!session) { failed++; continue; }
            // Unique keys: every request is a genuine (if quick) search.
            auto outcome =
                session->plan(resnet_request(64 + 8 * (t * 8 + r), 0));
            if (outcome) {
              ok++;
            } else if (outcome.error().code ==
                           api::PlanErrorCode::kOverloaded &&
                       outcome.error().retry_after > 0) {
              shed++;
            } else {
              failed++;
            }
          }
        });
    }
    shed_offered = kFlood;
    shed_count = shed.load();
    shed_rate = static_cast<double>(shed_count) /
                static_cast<double>(shed_offered);
    std::printf("\noverload flood: %d unique colds -> %llu served, %llu "
                "shed kOverloaded (%.0f%%), %llu failed\n",
                kFlood, static_cast<unsigned long long>(ok.load()),
                static_cast<unsigned long long>(shed_count),
                100.0 * shed_rate,
                static_cast<unsigned long long>(failed.load()));
    // Gate: sheds are well-formed and nothing fell over. (Whether any
    // shed occurs depends on machine speed; a fast box may drain all 24.)
    pass = pass && failed.load() == 0 &&
           ok.load() + shed_count == shed_offered;
    daemon.stop();
  }

  // ---- Phase 7: tenant fairness (cold storm vs hot-hit p99) ----
  {
    pland::DaemonOptions options;
    options.socket_path = scratch + "/fair.sock";
    options.engine.cache.cache_dir = scratch + "/fair-cache";
    options.num_workers = 2;
    pland::Daemon daemon(std::move(options));
    if (!daemon.start()) {
      std::fprintf(stderr, "cannot start daemon\n");
      return 1;
    }
    const api::PlanRequest hot_key = resnet_request(512, 0);
    auto hot_session =
        api::RemoteSession::connect(daemon.socket_path(), "interactive");
    if (!hot_session) {
      std::fprintf(stderr, "fairness connect failed\n");
      return 1;
    }
    hot_session->plan_raw(hot_key);  // warm

    auto measure = [&](int reps) {
      std::vector<double> lat;
      lat.reserve(static_cast<std::size_t>(reps));
      for (int r = 0; r < reps; ++r) {
        const double t = now_us();
        hot_session->plan_raw(hot_key);
        lat.push_back(now_us() - t);
      }
      return lat;
    };

    // A single window's p99 (the k-th worst of a few hundred samples) is
    // dominated by whichever stray timer/softirq hiccup happens to land
    // in it — on a small box those are multi-millisecond and appear with
    // or without the storm. The gate targets SYSTEMATIC inflation, which
    // shows up in every window; the median of three windows' p99s keeps
    // that and discards the one-off.
    auto p99_median = [&] {
      std::vector<double> p;
      for (int w = 0; w < 3; ++w)
        p.push_back(percentile(measure(500), 0.99));
      std::sort(p.begin(), p.end());
      return p[1];
    };

    fair_alone_p99 = p99_median();

    // Unique cold requests, built before the storm clock starts: the
    // storm must load the DAEMON, not the bench process. Constructing a
    // fresh 1024-batch model (and DOM-parsing each plan response) per
    // iteration would make the storm client itself the hot tenant's CPU
    // competitor on a small box — measuring client self-contention, not
    // daemon isolation. If the storm drains the list it wraps to warm
    // hits, which keeps the batch tenant's traffic flowing either way.
    std::vector<api::PlanRequest> colds;
    for (int r = 0; r < 192; ++r)
      colds.push_back(resnet_request(1024 + r, 0));

    std::atomic<bool> storming{true};
    std::atomic<bool> storm_live{false};
    std::jthread storm([&] {
      auto cold = api::RemoteSession::connect(daemon.socket_path(),
                                              "batch");
      for (std::size_t r = 0; cold && storming.load(); ++r) {
        cold->plan_raw(colds[r % colds.size()]);
        storm_live.store(true);
      }
    });
    // Sleep (not spin): a busy-wait at normal priority would starve the
    // idle-policy plan worker running the storm's first cold search.
    while (!storm_live.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    fair_storm_p99 = p99_median();
    storming.store(false);
    storm.join();
    daemon.stop();

    fair_ratio = fair_alone_p99 > 0 ? fair_storm_p99 / fair_alone_p99 : 0;
    std::printf("\nfairness: hot-hit p99 alone %.0f us, under another "
                "tenant's cold storm %.0f us -> ratio %.2fx (gate <= 2x)\n",
                fair_alone_p99, fair_storm_p99, fair_ratio);
    pass = pass && fair_ratio <= 2.0;
  }

  // ---- BENCH_service.json (the CI artifact) ----
  {
    util::json::Writer w;
    w.begin_object();
    w.key("bench"); w.value("service");
    w.key("clients"); w.value(clients);
    w.key("hit_latency_us");
    w.begin_object();
    w.key("p50"); w.value(hit_p50);
    w.key("p90"); w.value(hit_p90);
    w.key("p99"); w.value(hit_p99);
    w.end_object();
    w.key("dedup");
    w.begin_object();
    w.key("searches"); w.value(static_cast<std::int64_t>(storm_searches));
    w.key("byte_identical"); w.value(storm_identical);
    w.key("factor"); w.value(dedup_factor);
    w.end_object();
    w.key("overload");
    w.begin_object();
    w.key("offered"); w.value(static_cast<std::int64_t>(shed_offered));
    w.key("shed"); w.value(static_cast<std::int64_t>(shed_count));
    w.key("shed_rate"); w.value(shed_rate);
    w.end_object();
    w.key("fairness");
    w.begin_object();
    w.key("hot_p99_alone_us"); w.value(fair_alone_p99);
    w.key("hot_p99_storm_us"); w.value(fair_storm_p99);
    w.key("ratio"); w.value(fair_ratio);
    w.end_object();
    w.key("pass"); w.value(pass);
    w.end_object();
    std::ofstream("BENCH_service.json") << w.take() << "\n";
    std::printf("\nwrote BENCH_service.json\n");
  }
  std::filesystem::remove_all(scratch);

  std::printf("\n%s: single-flight >= 5x on all-hot, artifacts "
              "bit-identical, cancel/deadline settle < 100 ms, fleet "
              "storm == 1 search, hit p50 < 500 us, fairness <= 2x\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
