#include "src/solver/anneal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/solver/memo.h"

namespace karma::solver {
namespace {

TEST(Anneal, MinimizesQuadratic) {
  Rng rng(1234);
  const std::function<double(const double&)> energy = [](const double& x) {
    return (x - 3.0) * (x - 3.0);
  };
  const std::function<double(const double&, Rng&)> neighbor =
      [](const double& x, Rng& r) { return x + r.next_symmetric(0.5f); };
  AnnealParams params;
  params.iterations = 5000;
  const auto [best, e] = anneal(10.0, energy, neighbor, params, rng);
  EXPECT_NEAR(best, 3.0, 0.1);
  EXPECT_LT(e, 0.01);
}

TEST(Anneal, ReturnsBestEverVisited) {
  Rng rng(7);
  // Deterministic cycle through 0..9 with a sharp minimum at 7 that the
  // walk immediately leaves again: the returned state must still be 7.
  const std::function<double(const int&)> energy = [](const int& x) {
    return x == 7 ? -100.0 : static_cast<double>(x);
  };
  const std::function<int(const int&, Rng&)> neighbor = [](const int& x,
                                                           Rng&) {
    return (x + 1) % 10;
  };
  AnnealParams params;
  params.iterations = 50;
  params.initial_temperature = 1e9;  // accept everything: full tour
  params.cooling = 1.0;
  const auto [best, e] = anneal(0, energy, neighbor, params, rng);
  EXPECT_EQ(best, 7);
  EXPECT_DOUBLE_EQ(e, -100.0);
}

TEST(Anneal, DeterministicForSeed) {
  const std::function<double(const double&)> energy = [](const double& x) {
    return std::abs(x);
  };
  const std::function<double(const double&, Rng&)> neighbor =
      [](const double& x, Rng& r) { return x + r.next_symmetric(1.0f); };
  AnnealParams params;
  params.iterations = 500;
  Rng a(99), b(99);
  const auto ra = anneal(5.0, energy, neighbor, params, a);
  const auto rb = anneal(5.0, energy, neighbor, params, b);
  EXPECT_DOUBLE_EQ(ra.first, rb.first);
  EXPECT_DOUBLE_EQ(ra.second, rb.second);
}

// ---- Cooperative cancellation (the should_stop contract, DESIGN.md §11):
// tripping the check truncates the walk and yields the best of what was
// evaluated so far — never an exception, never a worse state.

TEST(Anneal, PollsStopBeforeInitialEvaluation) {
  // Regression: the walk used to evaluate energy(init) — one full
  // simulation for the planners — before the first should_stop poll, so a
  // search cancelled before the anneal phase still paid a replay.
  Rng rng(1);
  int evaluations = 0;
  const std::function<double(const int&)> energy = [&](const int&) {
    ++evaluations;
    return 0.0;
  };
  const std::function<int(const int&, Rng&)> neighbor = [](const int& x,
                                                           Rng&) {
    return x + 1;
  };
  AnnealParams params;
  params.iterations = 100;
  params.should_stop = [] { return true; };
  const auto [best, e] = anneal(42, energy, neighbor, params, rng);
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(best, 42);  // untouched init
  EXPECT_TRUE(std::isinf(e));
}

// ---- Portfolio annealing (lazy-SMP, DESIGN.md §14). All of these run
// under the TSan CI job with real threads.

namespace portfolio {

const std::function<double(const double&, int)> quadratic =
    [](const double& x, int) { return (x - 3.0) * (x - 3.0); };
const std::function<double(const double&, Rng&)> step =
    [](const double& x, Rng& r) { return x + r.next_symmetric(0.5f); };
const std::function<std::string(const double&)> key = [](const double& x) {
  return std::to_string(x);
};

}  // namespace portfolio

TEST(PortfolioAnneal, BitIdenticalAcrossRuns) {
  // The whole point of the stable reduction: for a fixed seed the result
  // is a pure function of the inputs, independent of thread scheduling.
  AnnealParams params;
  params.iterations = 2000;
  auto run = [&] {
    Rng rng(4242);
    return portfolio_anneal<double>(10.0, portfolio::quadratic,
                                    portfolio::step, params, 4, rng,
                                    portfolio::key);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.state, b.state);  // bit-identical, not just close
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_NEAR(a.state, 3.0, 0.2);
}

TEST(PortfolioAnneal, OneWorkerMatchesPlainAnnealOnSplitStream) {
  // Documented 1-worker semantics: one split stream, full budget,
  // unscaled temperature — i.e. plain anneal on rng.split().
  AnnealParams params;
  params.iterations = 500;
  Rng a(77);
  const auto portfolio_result = portfolio_anneal<double>(
      8.0, portfolio::quadratic, portfolio::step, params, 1, a,
      portfolio::key);
  Rng b(77);
  Rng stream = b.split();
  const std::function<double(const double&)> energy = [](const double& x) {
    return portfolio::quadratic(x, 0);
  };
  const auto plain = anneal(8.0, energy, portfolio::step, params, stream);
  EXPECT_EQ(portfolio_result.state, plain.first);
  EXPECT_EQ(portfolio_result.energy, plain.second);
  EXPECT_EQ(portfolio_result.worker, 0);
}

TEST(PortfolioAnneal, StableReductionPicksLowestEnergyThenFirstWorker) {
  // Zero iterations: each worker scores only the init, so energies are
  // fully controlled by the (state, worker) energy table. Workers 1 and 2
  // tie at the minimum with identical states (hence identical keys); the
  // documented rule keeps the first of them.
  const std::function<double(const int&, int)> energy = [](const int&,
                                                           int w) {
    const double table[] = {5.0, 3.0, 3.0, 4.0};
    return table[w];
  };
  const std::function<int(const int&, Rng&)> neighbor = [](const int& x,
                                                           Rng&) {
    return x;
  };
  AnnealParams params;
  params.iterations = 0;
  Rng rng(1);
  const auto r = portfolio_anneal<int>(
      0, energy, neighbor, params, 4, rng,
      [](const int& x) { return std::to_string(x); });
  EXPECT_EQ(r.energy, 3.0);
  EXPECT_EQ(r.worker, 1);
}

TEST(PortfolioAnneal, MatchesDocumentedReductionAgainstManualWorkers) {
  // Spec test: reproduce each worker's walk by hand (split streams in
  // worker order, ceil-divided budget, temperature ladder, cooling^N) and
  // apply the documented reduction; portfolio_anneal must agree exactly.
  AnnealParams params;
  params.iterations = 1000;
  params.initial_temperature = 2.0;
  const int workers = 4;
  Rng a(9001);
  const auto got = portfolio_anneal<double>(10.0, portfolio::quadratic,
                                            portfolio::step, params, workers,
                                            a, portfolio::key);
  Rng b(9001);
  std::vector<Rng> streams;
  for (int w = 0; w < workers; ++w) streams.push_back(b.split());
  double best_e = std::numeric_limits<double>::infinity();
  double best_state = 10.0;
  int best_worker = 0;
  std::string best_key;
  for (int w = 0; w < workers; ++w) {
    AnnealParams p = params;
    p.iterations = (params.iterations + workers - 1) / workers;
    p.initial_temperature =
        params.initial_temperature * portfolio_temperature_scale(w);
    p.cooling = std::pow(params.cooling, static_cast<double>(workers));
    const std::function<double(const double&)> energy =
        [w](const double& x) { return portfolio::quadratic(x, w); };
    const auto r = anneal(10.0, energy, portfolio::step, p,
                          streams[static_cast<std::size_t>(w)]);
    const std::string k = portfolio::key(r.first);
    if (r.second < best_e ||
        (r.second == best_e && k < best_key)) {
      best_e = r.second;
      best_state = r.first;
      best_worker = w;
      best_key = k;
    }
  }
  EXPECT_EQ(got.state, best_state);
  EXPECT_EQ(got.energy, best_e);
  EXPECT_EQ(got.worker, best_worker);
}

TEST(PortfolioAnneal, TemperatureLadderShape) {
  EXPECT_DOUBLE_EQ(portfolio_temperature_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(portfolio_temperature_scale(1), 2.0);
  EXPECT_DOUBLE_EQ(portfolio_temperature_scale(2), 0.5);
  EXPECT_DOUBLE_EQ(portfolio_temperature_scale(3), 4.0);
  EXPECT_DOUBLE_EQ(portfolio_temperature_scale(4), 0.25);
}

TEST(PortfolioAnneal, NonStdExceptionsPropagateAfterJoin) {
  // The planners' SearchInterrupted is not a std::exception; a worker
  // that throws it must not take the process down (std::thread with an
  // escaping exception calls std::terminate) and the caller must see it.
  struct Interrupt {
    int worker;
  };
  const std::function<double(const double&, int)> energy =
      [](const double& x, int w) -> double {
    if (w == 2) throw Interrupt{w};
    return x * x;
  };
  AnnealParams params;
  params.iterations = 50;
  Rng rng(3);
  bool caught = false;
  try {
    portfolio_anneal<double>(1.0, energy, portfolio::step, params, 4, rng,
                             portfolio::key);
  } catch (const Interrupt& i) {
    caught = true;
    EXPECT_EQ(i.worker, 2);
  }
  EXPECT_TRUE(caught);
}

TEST(SharedEvalMemo, CountsAreExactUnderContention) {
  // Four threads hammer overlapping keys: every lookup and every hit is
  // counted once, whichever shard it lands on and whoever stored first.
  SharedEvalMemo<std::uint64_t, double> memo;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::vector<std::int64_t> lookups(kThreads, 0), hits(kThreads, 0);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t key = rng.next_below(512);
        ++lookups[static_cast<std::size_t>(t)];
        if (const auto value = memo.find(key)) {
          ++hits[static_cast<std::size_t>(t)];
          EXPECT_EQ(*value, static_cast<double>(key) * 0.5);
        } else {
          memo.store(key, static_cast<double>(key) * 0.5);
        }
      }
    });
  for (auto& th : pool) th.join();
  std::int64_t want_lookups = 0, want_hits = 0;
  for (int t = 0; t < kThreads; ++t) {
    want_lookups += lookups[static_cast<std::size_t>(t)];
    want_hits += hits[static_cast<std::size_t>(t)];
  }
  EXPECT_EQ(memo.lookups(), want_lookups);
  EXPECT_EQ(memo.hits(), want_hits);
  EXPECT_EQ(want_lookups, kThreads * kOps);
  // At most one miss per key per thread: the racing stores hold one value.
  EXPECT_GE(want_hits, want_lookups - 512 * kThreads);
}

}  // namespace
}  // namespace karma::solver
