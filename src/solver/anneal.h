// Simulated annealing — the stand-in for the MIDACO ant-colony MINLP
// solver the paper uses for the two-tier optimization of Fig. 4 (see
// DESIGN.md §2). The blocking search in src/core combines exhaustive
// enumeration over block-count candidates (exact for the sizes the paper
// reports MIDACO converging on in under four minutes) with this annealer
// for boundary refinement on very deep models.
//
// Two entry points:
//  - anneal(): one Metropolis walk, deterministic for a fixed Rng.
//  - portfolio_anneal(): N concurrent walks in the lazy-SMP style of
//    multithreaded game-tree search — workers diversify by rng stream and
//    temperature, share whatever memoization the energy function carries,
//    and reduce with a stable tie-break so the result is a pure function
//    of (init, seed, params) regardless of thread scheduling
//    (DESIGN.md §14).
#pragma once

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace karma::solver {

struct AnnealParams {
  int iterations = 2000;
  double initial_temperature = 1.0;
  /// Geometric cooling factor applied per iteration.
  double cooling = 0.995;
  /// Cooperative stop check, polled once per iteration — and once before
  /// the initial energy evaluation, so a walk that is stopped before it
  /// starts performs no evaluation at all. Returning true ends the walk
  /// immediately; the best state visited so far is still returned (the
  /// untouched init with +inf energy when stopped pre-start). Truncation
  /// is the only effect — no randomness is drawn on the way out, so a
  /// walk that is never stopped is bit-identical to one run without the
  /// check.
  std::function<bool()> should_stop;
};

/// Minimizes `energy` starting from `init`. `neighbor` proposes a move;
/// standard Metropolis acceptance. Returns the best state ever visited
/// (not the final one). Deterministic for a fixed Rng seed.
template <typename State>
std::pair<State, double> anneal(
    State init, const std::function<double(const State&)>& energy,
    const std::function<State(const State&, Rng&)>& neighbor,
    const AnnealParams& params, Rng& rng) {
  // Poll BEFORE the first evaluation: a search cancelled before the walk
  // starts must not pay one full simulation just to learn it is dead.
  if (params.should_stop && params.should_stop())
    return {std::move(init), std::numeric_limits<double>::infinity()};
  State current = std::move(init);
  double current_e = energy(current);
  State best = current;
  double best_e = current_e;
  double temperature = params.initial_temperature;
  for (int i = 0; i < params.iterations; ++i) {
    if (params.should_stop && params.should_stop()) break;
    State candidate = neighbor(current, rng);
    // A rejected move (neighbor returns the state unchanged) needs no
    // energy evaluation: delta would be 0, the accept branch draws no
    // randomness, and current/best are unchanged — skipping is exact and
    // saves a full re-simulation when the objective is expensive.
    if (candidate == current) {
      temperature *= params.cooling;
      continue;
    }
    const double e = energy(candidate);
    const double delta = e - current_e;
    if (delta <= 0.0 ||
        rng.next_double() < std::exp(-delta / std::max(temperature, 1e-12))) {
      current = std::move(candidate);
      current_e = e;
      if (current_e < best_e) {
        best = current;
        best_e = current_e;
      }
    }
    temperature *= params.cooling;
  }
  return {best, best_e};
}

/// The temperature ladder diversifying portfolio workers: worker 0 runs
/// the caller's temperature unscaled, odd workers run hotter (x2, x4, ...)
/// to escape basins, even workers run colder (x0.5, x0.25, ...) to
/// exploit. Exposed so tests can assert the documented reduction.
inline double portfolio_temperature_scale(int worker) {
  if (worker == 0) return 1.0;
  const int rung = (worker + 1) / 2;
  return worker % 2 == 1 ? std::ldexp(1.0, rung)    // 2, 4, 8, ...
                         : std::ldexp(1.0, -rung);  // 1/2, 1/4, ...
}

/// Lazy-SMP portfolio annealing: `workers` independent Metropolis walks
/// from the same `init`, run concurrently and reduced deterministically.
///
/// Diversification: worker i draws its rng from the (i+1)-th `rng.split()`
/// (taken in worker order before any thread starts) and scales the
/// initial temperature by portfolio_temperature_scale(i). The iteration
/// budget is divided evenly — ceil(iterations/workers) each — and each
/// walk cools by cooling^workers per step so every worker still spans the
/// full temperature range of the serial schedule in its shorter walk.
///
/// Determinism: each walk is a pure function of its own rng stream and
/// the energy values it observes. Provided `energy` is a pure function of
/// (state, worker) — shared memoization is fine exactly when memoized and
/// recomputed values are bit-identical — thread scheduling cannot change
/// any walk's trajectory. The reduction is the documented stable rule:
/// lowest energy wins, ties break on the lexicographically smallest
/// key(state), so the winner is timing-independent too.
///
/// Exceptions: a worker whose energy/neighbor throws (including non-std
/// interrupt types like the planners' SearchInterrupted) has its
/// exception captured; after all workers join, the lowest-index captured
/// exception is rethrown. Walk 0 runs on the caller's thread and walks
/// 1..workers-1 on threads of their own, so workers <= 1 starts no thread
/// (one split stream, full budget, unscaled temperature).
///
/// Returns {best state, best energy, winning worker index}.
template <typename State>
struct PortfolioResult {
  State state;
  double energy = std::numeric_limits<double>::infinity();
  int worker = 0;
};

template <typename State>
PortfolioResult<State> portfolio_anneal(
    const State& init,
    const std::function<double(const State&, int)>& energy,
    const std::function<State(const State&, Rng&)>& neighbor,
    const AnnealParams& params, int workers, Rng& rng,
    const std::function<std::string(const State&)>& key,
    const std::function<void(int, bool)>& on_worker = {}) {
  workers = std::max(1, workers);
  std::vector<Rng> streams;
  streams.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) streams.push_back(rng.split());

  const int per_worker = (params.iterations + workers - 1) / workers;
  std::vector<std::pair<State, double>> results(
      static_cast<std::size_t>(workers),
      {init, std::numeric_limits<double>::infinity()});
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));

  auto run_worker = [&](int w) {
    if (on_worker) on_worker(w, true);
    try {
      AnnealParams p = params;
      p.iterations = per_worker;
      p.initial_temperature =
          params.initial_temperature * portfolio_temperature_scale(w);
      p.cooling = std::pow(params.cooling, static_cast<double>(workers));
      std::function<double(const State&)> e = [&, w](const State& s) {
        return energy(s, w);
      };
      results[static_cast<std::size_t>(w)] = anneal<State>(
          init, e, neighbor, p, streams[static_cast<std::size_t>(w)]);
    } catch (...) {
      errors[static_cast<std::size_t>(w)] = std::current_exception();
    }
    if (on_worker) on_worker(w, false);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) pool.emplace_back(run_worker, w);
  run_worker(0);
  for (auto& t : pool) t.join();
  for (auto& err : errors)
    if (err) std::rethrow_exception(err);

  // Stable reduction: (energy, key) lexicographic, first worker wins
  // exact ties. Keys are only computed when an energy tie forces it.
  PortfolioResult<State> out{results[0].first, results[0].second, 0};
  std::string out_key;
  bool out_key_ready = false;
  for (int w = 1; w < workers; ++w) {
    auto& r = results[static_cast<std::size_t>(w)];
    if (!(r.second <= out.energy)) continue;  // also rejects NaN
    if (r.second == out.energy) {
      if (!key) continue;
      if (!out_key_ready) {
        out_key = key(out.state);
        out_key_ready = true;
      }
      std::string k = key(r.first);
      if (!(k < out_key)) continue;
      out_key = std::move(k);
    } else {
      out_key_ready = false;
    }
    out.state = r.first;
    out.energy = r.second;
    out.worker = w;
  }
  return out;
}

}  // namespace karma::solver
