// karma::obs (DESIGN.md §15): the metrics registry, request-lifecycle
// tracing, and the simulated-timeline Chrome-trace export.
//
// Five layers of proof:
//   - REGISTRY: counters/gauges/histograms register by name, snapshot
//     deterministically (sorted, byte-stable), expose Prometheus text.
//   - SPANS: disabled tracing records nothing; enabled spans drain FIFO
//     with correct phases; overflow drops (never blocks) and counts.
//   - EXPORT: the execution-trace export is a golden fixture — the
//     deterministic ResNet-50 timeline renders byte-identically
//     (regenerate with KARMA_REGEN_GOLDEN=1).
//   - TORN-STATS REGRESSION: a 16-thread plan storm polled concurrently
//     by a stats reader never shows `searches + flights_joined >
//     requests` (the pre-PR-9 torn snapshot). Run under TSan by the
//     sanitize-thread CI job.
//   - DAEMON INTEGRATION: an in-process daemon with trace_dir produces a
//     Perfetto-loadable trace covering queue wait, cache lookup, and
//     every anneal worker; the `metrics` verb exports the daemon's
//     histograms through RemoteSession::metrics_json.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/remote_session.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/pland/daemon.h"
#include "src/sim/device.h"
#include "src/util/json.h"

namespace karma {
namespace {

namespace fs = std::filesystem;

/// Tests must not inherit a developer's shared cache.
class KillCacheEnv : public ::testing::Environment {
 public:
  void SetUp() override { unsetenv("KARMA_CACHE_DIR"); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new KillCacheEnv);

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("karma-obs-" + tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

api::PlanRequest resnet_request(std::int64_t batch, int anneal) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal;
  request.probe_feasible_batch = false;
  return request;
}

/// The ring and enable flag are process-global; every tracing test
/// leaves them as it found them (off, empty).
struct TracingGuard {
  TracingGuard() { obs::discard_trace(); }
  ~TracingGuard() {
    obs::set_tracing_enabled(false);
    obs::discard_trace();
  }
};

// ---------------------------------------------------------------------------
// Pillar 1: the metrics registry
// ---------------------------------------------------------------------------

TEST(Registry, InstrumentsAreNamedStableAndSnapshotSorted) {
  obs::Registry reg;
  obs::Counter* c = reg.counter("b.requests");
  EXPECT_EQ(c, reg.counter("b.requests"));  // same name -> same instrument
  c->inc();
  c->inc(41);
  EXPECT_EQ(c->value(), 42u);
  reg.gauge("a.depth")->set(2.5);
  reg.counter("a.hits")->inc(7);

  const std::string json = reg.snapshot_json();
  const auto root = util::json::parse(json);
  EXPECT_EQ(root.at("counters").at("b.requests").as_int(), 42);
  EXPECT_EQ(root.at("counters").at("a.hits").as_int(), 7);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("a.depth").as_double(), 2.5);
  // Deterministic: names sort, so the bytes are reproducible.
  EXPECT_LT(json.find("\"a.hits\""), json.find("\"b.requests\""));
  EXPECT_EQ(json, reg.snapshot_json());
}

TEST(Registry, HistogramMomentsPercentilesAndBuckets) {
  obs::Registry reg;
  obs::Histogram* h = reg.histogram("svc.latency");
  // 100 observations at 1 ms, 100 at 10 ms: p50 falls in the 1 ms
  // region, p99 in the 10 ms region, and the moments are exact.
  for (int i = 0; i < 100; ++i) h->observe(1e-3);
  for (int i = 0; i < 100; ++i) h->observe(1e-2);
  const auto snap = h->snapshot();
  EXPECT_EQ(snap.count, 200u);
  EXPECT_NEAR(snap.sum, 100 * 1e-3 + 100 * 1e-2, 1e-9);
  EXPECT_NEAR(snap.mean, snap.sum / 200.0, 1e-12);
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, 1e-2);
  EXPECT_LE(snap.percentile(50), 2e-3);
  EXPECT_GE(snap.percentile(99), 5e-3);
  EXPECT_LE(snap.percentile(99), 1e-2 + 1e-12);
  std::uint64_t bucket_total = 0;
  for (const auto& b : snap.buckets) bucket_total += b.count;
  EXPECT_EQ(bucket_total, 200u);

  const auto root = util::json::parse(reg.snapshot_json());
  const auto& hj = root.at("histograms").at("svc.latency");
  EXPECT_EQ(hj.at("count").as_int(), 200);
  EXPECT_GT(hj.at("p99").as_double(), hj.at("p50").as_double());
}

TEST(Registry, HistogramObserveIsThreadSafe) {
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.observe(1e-3);
    });
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 8000u);
  EXPECT_NEAR(snap.mean, 1e-3, 1e-12);
}

TEST(Registry, PrometheusTextExposition) {
  obs::Registry reg;
  reg.counter("engine.requests")->inc(3);
  reg.gauge("cache.resident_bytes")->set(1024);
  reg.histogram("engine.search_seconds")->observe(0.5);
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# TYPE karma_engine_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("karma_engine_requests 3"), std::string::npos);
  EXPECT_NE(text.find("karma_cache_resident_bytes 1024"), std::string::npos);
  // Cumulative buckets with the mandatory +Inf terminal.
  EXPECT_NE(text.find("karma_engine_search_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("karma_engine_search_seconds_count 1"),
            std::string::npos);
}

TEST(Registry, CollectorsRunAtSnapshotAndDeregister) {
  obs::Registry reg;
  obs::Gauge* g = reg.gauge("mirror.value");
  std::atomic<int> calls{0};
  const std::uint64_t token = reg.add_collector([&] {
    calls.fetch_add(1);
    g->set(7.0);
  });
  const auto root = util::json::parse(reg.snapshot_json());
  EXPECT_EQ(calls.load(), 1);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("mirror.value").as_double(), 7.0);
  reg.remove_collector(token);
  (void)reg.snapshot_json();
  EXPECT_EQ(calls.load(), 1);  // deregistered: not called again
}

// ---------------------------------------------------------------------------
// Pillar 2: spans and the trace ring
// ---------------------------------------------------------------------------

TEST(Span, DisabledTracingRecordsNothing) {
  TracingGuard guard;
  ASSERT_FALSE(obs::tracing_enabled());
  {
    obs::Span span("should.not.appear", "test");
    span.arg("x", 1);
    obs::emit_instant("also.not", "test");
  }
  std::vector<obs::TraceEvent> events;
  EXPECT_EQ(obs::drain_trace(&events), 0u);
}

TEST(Span, EnabledSpansDrainInOrderWithPhasesAndArgs) {
  TracingGuard guard;
  obs::set_tracing_enabled(true);
  {
    obs::Span outer("outer", "test");
    outer.arg("depth", 1);
    obs::emit_instant("marker", "test", "k", 42);
    {
      obs::Span inner("inner", "test");
    }  // inner ends (and is pushed) first
  }
  obs::set_tracing_enabled(false);

  std::vector<obs::TraceEvent> events;
  ASSERT_EQ(obs::drain_trace(&events), 3u);
  EXPECT_STREQ(events[0].name, "marker");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[0].arg_value[0], 42);
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_EQ(events[2].phase, 'X');
  EXPECT_GE(events[2].dur_us, events[1].dur_us);  // outer encloses inner

  // The drained events render as parseable Chrome trace JSON.
  const auto root = util::json::parse(obs::chrome_trace_json(events));
  const auto& rendered = root.at("traceEvents").array;
  ASSERT_EQ(rendered.size(), 3u);
  EXPECT_EQ(rendered[0].at("ph").as_string(), "i");
  EXPECT_EQ(rendered[2].at("args").at("depth").as_int(), 1);
}

TEST(Span, RingOverflowDropsAndCountsInsteadOfBlocking) {
  TracingGuard guard;
  obs::set_tracing_enabled(true);
  const std::size_t way_past_capacity = (1u << 16) + 500;
  for (std::size_t i = 0; i < way_past_capacity; ++i)
    obs::emit_instant("flood", "test");
  obs::set_tracing_enabled(false);
  EXPECT_GE(obs::dropped_trace_events(), 500u);
  std::vector<obs::TraceEvent> events;
  EXPECT_EQ(obs::drain_trace(&events), std::size_t{1} << 16);
  obs::discard_trace();
  EXPECT_EQ(obs::dropped_trace_events(), 0u);
}

// ---------------------------------------------------------------------------
// Pillar 3: execution-trace export (golden fixture)
// ---------------------------------------------------------------------------

TEST(ChromeTraceExport, GoldenResNet50TimelineMatches) {
  // A deterministic candidate evaluation: fixed blocking, fixed policies,
  // no search. The simulator is deterministic, so the exported JSON is
  // byte-stable across runs and platforms.
  const graph::Model model = graph::make_resnet50(512);
  core::KarmaPlanner planner(model, sim::v100_abci());
  const auto blocks = sim::uniform_blocks(model, /*max_layers=*/8);
  ASSERT_GE(blocks.size(), 3u);
  std::vector<core::BlockPolicy> policies(blocks.size(),
                                          core::BlockPolicy::kSwap);
  policies.front() = core::BlockPolicy::kRecompute;
  policies.back() = core::BlockPolicy::kResident;
  const auto result = planner.evaluate(blocks, policies, "karma+recompute");
  ASSERT_TRUE(result.has_value());

  const std::string actual =
      obs::export_execution_trace(result->trace, result->schedule);

  const std::string path =
      std::string(KARMA_SOURCE_DIR) + "/tests/golden/trace_fixture.json";
  if (std::getenv("KARMA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual << "\n";
    GTEST_SKIP() << "regenerated golden fixture at " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with KARMA_REGEN_GOLDEN=1 ./test_obs";
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();
  EXPECT_EQ(actual, expected)
      << "trace export drifted; if intentional, regenerate the fixture "
         "with KARMA_REGEN_GOLDEN=1 and review the diff in Perfetto";

  // Structure: parseable, with stream metadata, op slices, stalls
  // attributed, and residency counter tracks.
  const auto root = util::json::parse(actual);
  const auto& events = root.at("traceEvents").array;
  ASSERT_GT(events.size(), 10u);
  bool saw_thread_meta = false, saw_slice = false, saw_counter = false;
  for (const auto& ev : events) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") saw_thread_meta = true;
    if (ph == "X") saw_slice = true;
    if (ph == "C") saw_counter = true;
  }
  EXPECT_TRUE(saw_thread_meta);
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_counter);
  EXPECT_NE(actual.find("\"device_resident\""), std::string::npos);
}

TEST(ChromeTraceExport, RejectsRecordsThatDontIndexThePlan) {
  sim::Plan plan;
  sim::ExecutionTrace trace;
  sim::OpRecord rec;
  rec.op_index = 3;  // plan.ops is empty
  trace.records.push_back(rec);
  EXPECT_THROW(obs::export_execution_trace(trace, plan),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Torn-stats regression (TSan-covered by the sanitize-thread CI job)
// ---------------------------------------------------------------------------

TEST(EngineStatsSnapshot, NeverTornUnderAPlanStorm) {
  auto engine = api::Engine::create();
  constexpr int kThreads = 16;
  std::atomic<bool> stop{false};

  // Poller: every snapshot must satisfy the causal invariants — a torn
  // (mixed-epoch) read shows e.g. a search whose request is missing.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const api::EngineStats s = engine->stats();
      EXPECT_LE(s.searches + s.flights_joined, s.requests)
          << "torn snapshot: effects visible before their causes";
      EXPECT_LE(s.cancelled + s.deadlines, s.requests);
    }
  });

  std::vector<std::thread> storm;
  for (int t = 0; t < kThreads; ++t)
    storm.emplace_back([&engine, t] {
      // Distinct batches -> distinct keys -> real concurrent searches;
      // a tiny anneal keeps the whole storm inside the tier-1 budget.
      auto out = engine->plan(resnet_request(32 + t, /*anneal=*/2));
      EXPECT_TRUE(out.has_value());
    });
  for (auto& t : storm) t.join();
  stop.store(true, std::memory_order_relaxed);
  poller.join();

  const api::EngineStats s = engine->stats();
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.searches + s.flights_joined, s.requests);
}

TEST(EngineMetrics, RegistryMirrorsStatsAndCache) {
  auto engine = api::Engine::create();
  ASSERT_TRUE(engine->plan(resnet_request(64, /*anneal=*/2)).has_value());
  ASSERT_TRUE(engine->plan(resnet_request(64, /*anneal=*/2)).has_value());

  const auto root = util::json::parse(engine->metrics()->snapshot_json());
  EXPECT_EQ(root.at("counters").at("engine.requests").as_int(), 2);
  EXPECT_EQ(root.at("counters").at("engine.searches").as_int(), 1);
  // The search latency histogram saw exactly the one real search.
  EXPECT_EQ(
      root.at("histograms").at("engine.search_seconds").at("count").as_int(),
      1);
  // CacheStats mirrored in as gauges by the registered collector.
  EXPECT_GE(root.at("gauges").at("cache.memory_hits").as_double(), 1.0);
  // And the snapshot agrees with the legacy struct view.
  EXPECT_EQ(engine->cache_stats().memory_hits,
            static_cast<std::uint64_t>(
                root.at("gauges").at("cache.memory_hits").as_double()));
}

// ---------------------------------------------------------------------------
// Daemon integration: metrics verb + --trace-dir
// ---------------------------------------------------------------------------

TEST(DaemonObservability, MetricsVerbAndTraceDirCoverTheRequestLifecycle) {
  TracingGuard guard;  // daemon start() flips the global tracing flag
  TempDir dir("daemon");
  pland::DaemonOptions options;
  options.socket_path = dir.path + "/pland.sock";
  options.engine.cache.cache_dir = dir.path + "/cache";
  options.trace_dir = dir.path + "/traces";
  pland::Daemon daemon(std::move(options));
  ASSERT_TRUE(daemon.start());

  auto session =
      api::RemoteSession::connect(daemon.socket_path(), "obs-tenant");
  ASSERT_TRUE(session.has_value()) << session.error().message;
  const api::PlanRequest request = resnet_request(512, /*anneal=*/30);
  ASSERT_TRUE(session->plan_raw(request).has_value());  // cold: miss path
  ASSERT_TRUE(session->plan_raw(request).has_value());  // warm: hit path

  // --- metrics verb: the whole process in one snapshot ---
  auto metrics = session->metrics_json();
  ASSERT_TRUE(metrics.has_value()) << metrics.error().message;
  const auto root = util::json::parse(metrics.value());
  EXPECT_EQ(root.at("counters").at("pland.requests").as_int(), 2);
  EXPECT_EQ(root.at("counters").at("engine.searches").as_int(), 1);
  const auto& hit = root.at("histograms").at("pland.hit_seconds");
  EXPECT_EQ(hit.at("count").as_int(), 1);
  EXPECT_GT(hit.at("p50").as_double(), 0.0);
  EXPECT_EQ(root.at("histograms")
                .at("pland.queue_wait_seconds")
                .at("count")
                .as_int(),
            1);

  daemon.stop();

  // --- trace-dir: the cold plan's flush is a Perfetto-loadable document
  // whose spans cover queue wait, cache lookup, the search, and every
  // anneal worker (anneal_workers defaults to 4) ---
  const std::string trace_path = dir.path + "/traces/plan-0.trace.json";
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "daemon did not flush " << trace_path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace_json = buffer.str();
  const auto trace_root = util::json::parse(trace_json);
  EXPECT_GT(trace_root.at("traceEvents").array.size(), 0u);
  for (const char* span : {"pland.queue_wait", "pland.plan_miss",
                           "request.parse", "engine.cache_lookup",
                           "engine.search", "opt1.enumerate", "opt1.anneal",
                           "anneal.worker", "opt2.flips", "pland.respond"}) {
    EXPECT_NE(trace_json.find(std::string("\"") + span + "\""),
              std::string::npos)
        << "trace is missing span '" << span << "'";
  }
  // One "anneal.worker" slice per portfolio worker.
  std::size_t workers_seen = 0, pos = 0;
  while ((pos = trace_json.find("\"anneal.worker\"", pos)) !=
         std::string::npos) {
    ++workers_seen;
    pos += 1;
  }
  EXPECT_EQ(workers_seen, 4u);
}

}  // namespace
}  // namespace karma
