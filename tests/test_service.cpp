// karma::api v2 service semantics (DESIGN.md §11): Engine + PlanFuture,
// single-flight collapse of identical concurrent requests, cooperative
// cancellation / deadlines / candidate budgets with best-so-far partial
// plans, and the cleanliness guarantees around them (a cancelled search
// never poisons the shared cache or later searches' rng-stream
// determinism). This suite is the primary subject of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/cache/plan_cache.h"
#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/util/cancel.h"

namespace karma::api {
namespace {

// Exact hit/miss/search counters below; ambient cache configuration must
// not leak in (static init runs before gtest's main).
[[maybe_unused]] const int kCacheEnvGuard = [] {
  unsetenv("KARMA_CACHE_DIR");
  return 0;
}();

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

PlanRequest resnet_request(std::int64_t batch, int anneal_iterations) {
  PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal_iterations;
  request.probe_feasible_batch = false;
  return request;
}

/// Fresh single-use full search on an engine that remembers nothing (no
/// memory level, no disk) — the ground truth the engine's answers must be
/// bit-identical to.
std::string serial_baseline_json(const PlanRequest& request) {
  CacheOptions no_cache;
  no_cache.cache_memory_bytes = 0;
  return Engine::create({no_cache})->plan_or_throw(request).to_json();
}

// ---------------------------------------------------------------------------
// Single-flight
// ---------------------------------------------------------------------------

TEST(EngineSingleFlight, IdenticalStormRunsExactlyOneSearch) {
  const auto engine = Engine::create();
  // Deep enough that the storm threads overlap the leader's search; the
  // "exactly one" guarantee itself is timing-independent (joiners either
  // collapse into the flight or hit the cache the leader filled).
  const PlanRequest request = resnet_request(512, /*anneal=*/150);

  constexpr int kThreads = 16;
  std::vector<std::string> artifacts(kThreads);
  std::barrier sync(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        sync.arrive_and_wait();
        artifacts[static_cast<std::size_t>(i)] =
            engine->plan_or_throw(request).to_json();
      });
  }

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.searches, 1u) << stats.describe();
  // Every waiter either joined the flight or hit the cache entry the
  // leader wrote — nobody searched twice, nobody got a different answer.
  EXPECT_EQ(stats.flights_joined + engine->cache_stats().hits(), 15u)
      << stats.describe() << " / " << engine->cache_stats().describe();
  EXPECT_EQ(serial_baseline_json(request), artifacts[0]);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(artifacts[0], artifacts[i]);
}

TEST(EngineSingleFlight, DistinctConcurrentRequestsMatchFreshSerialPlans) {
  const auto engine = Engine::create();
  const std::vector<std::int64_t> batches = {128, 192, 256, 320, 384, 448};
  std::vector<std::string> artifacts(batches.size());
  std::barrier sync(static_cast<std::ptrdiff_t>(batches.size()));
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < batches.size(); ++i)
      threads.emplace_back([&, i] {
        sync.arrive_and_wait();
        artifacts[i] =
            engine->plan_or_throw(resnet_request(batches[i], 30)).to_json();
      });
  }
  EXPECT_EQ(engine->stats().searches, batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i)
    EXPECT_EQ(artifacts[i], serial_baseline_json(resnet_request(batches[i], 30)))
        << "batch " << batches[i];
}

TEST(EngineSingleFlight, SequentialRepeatIsACacheHitNotASecondSearch) {
  const auto engine = Engine::create();
  const PlanRequest request = resnet_request(256, 30);
  const Plan first = engine->plan_or_throw(request);
  const PlanFuture warm = engine->plan_async(request);
  // Settled at submission: no flight, no worker, just the cached artifact.
  EXPECT_TRUE(warm.progress().done);
  const auto result = warm.get();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result.value().to_json(), first.to_json());
  EXPECT_EQ(engine->stats().searches, 1u);
  EXPECT_EQ(engine->cache_stats().memory_hits, 1u);
}

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

TEST(EngineCancel, CancelMidAnnealSettlesPromptlyWithPartial) {
  const auto engine = Engine::create();
  // An effectively unbounded anneal: without cancellation this search
  // would run for minutes.
  const PlanRequest deep = resnet_request(512, /*anneal=*/50'000'000);
  const PlanFuture future = engine->plan_async(deep);

  // Wait for the search to produce a best-so-far (first feasible Opt-1
  // candidate) so the partial attachment is deterministic.
  const auto t0 = std::chrono::steady_clock::now();
  while (!future.progress().has_best && seconds_since(t0) < 30.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(future.progress().has_best) << "search never got going";

  future.cancel();
  const auto cancel_t0 = std::chrono::steady_clock::now();
  const auto outcome = future.get();
  // cancel() settles the caller locally — get() must not wait for the
  // search thread to notice (the cooperative stop happens behind the
  // scenes). Generous bound: this is microseconds in practice.
  EXPECT_LT(seconds_since(cancel_t0), 1.0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, PlanErrorCode::kCancelled);
  // The best-so-far partial is a usable artifact.
  ASSERT_NE(outcome.error().partial, nullptr);
  EXPECT_GT(outcome.error().partial->blocks().size(), 0u);
  EXPECT_GT(outcome.error().partial->iteration_time, 0.0);
  const auto progress = future.progress();
  EXPECT_TRUE(progress.done);
  EXPECT_GT(progress.candidates, 0);
  EXPECT_EQ(engine->stats().cancelled, 1u);
}

TEST(EngineCancel, CancelledBeforeAnyEvaluationPaysNoSimulation) {
  // Regression for the anneal's poll-before-initial-evaluation fix
  // (solver::anneal used to score energy(init) — one full replay — before
  // its first should_stop poll): a token tripped before the search starts
  // must cost ZERO candidate evaluations, not one per phase. Driven at the
  // planner layer where the evaluation counters are exact.
  CancelToken token = CancelToken::make();
  token.cancel();
  const graph::Model m = graph::make_resnet50(256);
  const core::KarmaPlanner planner(m, sim::v100_abci(), {});
  bool interrupted = false;
  try {
    planner.plan(token);
  } catch (const core::SearchInterrupted& stop) {
    interrupted = true;
    EXPECT_EQ(stop.reason, StopReason::kCancelled);
  }
  EXPECT_TRUE(interrupted);
  EXPECT_EQ(token.candidates(), 0);
  EXPECT_EQ(token.simulations(), 0);
}

TEST(EngineCancel, CancelMidPortfolioLeavesNoWorkerBehind) {
  // The anneal phase runs N concurrent walks; a cancel during that window
  // must stop ALL of them (each walk polls the shared token), and the
  // future must settle promptly with the cancellation and a partial plan.
  const auto engine = Engine::create();
  PlanRequest deep = resnet_request(512, /*anneal=*/50'000'000);
  const PlanFuture future = engine->plan_async(deep);
  const auto t0 = std::chrono::steady_clock::now();
  while (!future.progress().has_best && seconds_since(t0) < 30.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(future.progress().has_best);
  // Give the search a moment to reach the anneal phase; whether cancel
  // lands before, during, or after the portfolio, the invariants below
  // hold — this test exists so TSan sees the cancel/worker interleaving.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  future.cancel();
  const auto cancel_t0 = std::chrono::steady_clock::now();
  const auto outcome = future.get();
  EXPECT_LT(seconds_since(cancel_t0), 1.0);  // all N workers settled fast
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, PlanErrorCode::kCancelled);
  ASSERT_NE(outcome.error().partial, nullptr);
}

TEST(EngineCancel, CancelledSearchPoisonsNeitherCacheNorDeterminism) {
  const auto engine = Engine::create();

  // Start a deep search and cancel it mid-anneal.
  const PlanFuture doomed =
      engine->plan_async(resnet_request(512, /*anneal=*/50'000'000));
  const auto t0 = std::chrono::steady_clock::now();
  while (!doomed.progress().has_best && seconds_since(t0) < 30.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  doomed.cancel();
  ASSERT_FALSE(doomed.get().has_value());

  // Nothing of the interrupted search entered the shared cache — neither
  // as an artifact nor as a memoized failure.
  EXPECT_EQ(engine->cache_stats().insertions, 0u);
  EXPECT_EQ(engine->cache_stats().negative_insertions, 0u);

  // And a fresh search on the same engine is bit-identical to a fresh
  // serial one: each planner run builds its own rng stream and memo
  // state, so the cancelled walk left no footprint.
  const PlanRequest request = resnet_request(384, /*anneal=*/40);
  EXPECT_EQ(engine->plan_or_throw(request).to_json(),
            serial_baseline_json(request));
}

TEST(EngineCancel, DroppingEveryFutureCancelsAnUnwantedSearch) {
  auto engine = Engine::create();
  {
    const PlanFuture abandoned =
        engine->plan_async(resnet_request(512, 50'000'000));
    const auto t0 = std::chrono::steady_clock::now();
    while (abandoned.progress().candidates == 0 && seconds_since(t0) < 30.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GT(abandoned.progress().candidates, 0);
  }  // last handle dropped without get(): interest withdrawn -> cancel
  // The effectively-endless search must now wind down cooperatively; the
  // engine destructor joins its workers, so if the search kept running
  // this reset would hang (and the ctest timeout would flag it).
  engine.reset();
  SUCCEED();
}

// ---------------------------------------------------------------------------
// Deadlines and budgets
// ---------------------------------------------------------------------------

TEST(EngineDeadline, DeadlineBoundedPlanReturnsStructuredError) {
  const auto engine = Engine::create();
  PlanRequest deep = resnet_request(512, /*anneal=*/50'000'000);
  deep.limits.deadline = 0.5;  // seconds; the anneal alone would take minutes
  const auto t0 = std::chrono::steady_clock::now();
  const auto outcome = engine->plan(deep);
  const double elapsed = seconds_since(t0);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, PlanErrorCode::kDeadline);
  // Cooperative stop: deadline + at most a few candidate evaluations
  // (bounded generously for sanitizer builds; the <100 ms settle-latency
  // acceptance is gated in bench_fig_service_throughput, unsanitized).
  EXPECT_LT(elapsed, 10.0);
  // The synchronous leader's deadline trips inside the search itself (one
  // search ran and was interrupted), not in the wait.
  EXPECT_EQ(engine->stats().searches, 1u) << engine->stats().describe();
  // The shared cache holds nothing from the expired search.
  EXPECT_EQ(engine->cache_stats().insertions, 0u);
  EXPECT_EQ(engine->cache_stats().negative_insertions, 0u);
}

TEST(EngineDeadline, CandidateBudgetStopsSearchWithBestSoFar) {
  const auto engine = Engine::create();
  PlanRequest bounded = resnet_request(512, /*anneal=*/2000);
  // Enough budget for several feasible Opt-1 candidates, far below the
  // full search.
  bounded.limits.max_candidates = 25;
  const auto outcome = engine->plan(bounded);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, PlanErrorCode::kDeadline);
  EXPECT_NE(outcome.error().message.find("budget"), std::string::npos);
  ASSERT_NE(outcome.error().partial, nullptr);
  // The partial is a complete, usable artifact: it simulates and
  // round-trips like any plan (just possibly unpolished).
  const Plan& partial = *outcome.error().partial;
  EXPECT_GT(partial.blocks().size(), 0u);
  const auto reloaded = Plan::from_json(partial.to_json());
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->simulate().makespan, partial.simulate().makespan);

  // Budgets bound the search, not the artifact: lifting the budget on the
  // same request yields the full-search plan, bit-identical to serial.
  PlanRequest unbounded = bounded;
  unbounded.limits.max_candidates = 0;
  EXPECT_EQ(engine->plan_or_throw(unbounded).to_json(),
            serial_baseline_json(unbounded));
}

TEST(EngineDeadline, JoinerBudgetSettlesJoinerWithoutKillingTheFlight) {
  // A joiner's candidate budget must settle the JOINER even though the
  // flight's effective limits stay loose (the leader is unbounded) — and
  // must not truncate the shared search.
  const auto engine = Engine::create();
  const PlanRequest deep = resnet_request(512, /*anneal=*/50'000'000);
  const PlanFuture leader = engine->plan_async(deep);
  const auto t0 = std::chrono::steady_clock::now();
  while (leader.progress().candidates == 0 && seconds_since(t0) < 30.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GT(leader.progress().candidates, 0);

  PlanRequest joiner = deep;
  joiner.limits.max_candidates = 1;
  const auto t1 = std::chrono::steady_clock::now();
  const auto outcome = engine->plan(joiner);
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, PlanErrorCode::kDeadline);
  EXPECT_NE(outcome.error().message.find("budget"), std::string::npos);
  EXPECT_LT(seconds_since(t1), 10.0);  // settled by the wait, not the search
  // Exactly one search, still running for the leader.
  EXPECT_EQ(engine->stats().searches, 1u);
  EXPECT_FALSE(leader.progress().done);
  leader.cancel();
  EXPECT_EQ(leader.get().error().code, PlanErrorCode::kCancelled);
}

TEST(NegativeCacheInterplay, TruncatedDiagnosisIsNeverMemoizedAsComplete) {
  // Ground truth: the full probed diagnosis of an infeasible request.
  PlanRequest probing;
  probing.model = graph::make_resnet50(2048);  // beyond the ceiling
  probing.device = sim::v100_abci();
  probing.planner.anneal_iterations = 0;
  probing.probe_feasible_batch = true;
  const auto truth = Engine::create()->plan(probing);
  ASSERT_FALSE(truth.has_value());
  const std::int64_t nearest = truth.error().nearest_feasible_batch;
  ASSERT_GE(nearest, 1);

  // A budget that trips somewhere mid-search-or-bisection truncates the
  // diagnosis. Whatever the first outcome was, the SECOND (unbounded)
  // caller must get the complete answer — a truncated diagnosis must
  // never have been memoized as the request's.
  const auto engine = Engine::create();
  PlanRequest truncated = probing;
  truncated.limits.max_candidates = 12;
  (void)engine->plan(truncated);  // kDeadline or a truncated diagnosis

  const auto second = engine->plan(probing);
  ASSERT_FALSE(second.has_value());
  EXPECT_EQ(second.error().nearest_feasible_batch, nearest)
      << (second.error().from_negative_cache
              ? "a truncated diagnosis was served from the negative cache"
              : "fresh diagnosis disagrees with ground truth");
}

TEST(EngineDeadline, LimitsDoNotChangeTheCacheKey) {
  // A deadline-bounded request that finishes in time must hit the cache
  // entry written by an unbounded one: limits are patience, not content.
  const auto engine = Engine::create();
  const Plan warm = engine->plan_or_throw(resnet_request(256, 30));
  PlanRequest limited = resnet_request(256, 30);
  limited.limits.deadline = 30.0;
  limited.limits.max_candidates = 1;  // would stop any fresh search at once
  const auto hit = engine->plan(limited);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->to_json(), warm.to_json());
  EXPECT_EQ(engine->stats().searches, 1u);
}

// ---------------------------------------------------------------------------
// Engine independence
// ---------------------------------------------------------------------------

TEST(EngineIndependence, SeparateEnginesPlanIdenticallyAndShareNothing) {
  // Two private engines answer bit-identically (the search is a pure
  // function of the request) while sharing no in-memory state.
  const auto a = Engine::create();
  const auto b = Engine::create();
  const PlanRequest request = resnet_request(256, 30);
  EXPECT_EQ(a->plan_or_throw(request).to_json(),
            b->plan_or_throw(request).to_json());
  EXPECT_EQ(a->stats().searches, 1u);
  EXPECT_EQ(b->stats().searches, 1u);  // b never saw a's artifact
}

}  // namespace
}  // namespace karma::api
