// Cooperative cancellation + live progress for long-running searches.
//
// The Opt-1/Opt-2 planning search is an offline computation in the paper;
// as a service (karma::api::Engine) the same search must be *interruptible*
// — a tenant cancels, a deadline passes, a candidate budget runs out — and
// *observable* — a waiter wants to know how far the search has gotten
// before deciding to keep waiting. CancelToken is both channels in one
// value: the search polls should_stop() at its candidate boundaries (never
// mid-simulation, so stopping can never corrupt planner state) and
// publishes progress through the same shared state the waiters read.
//
// A default-constructed token is inert: it never stops anything, and
// progress writes are dropped. That keeps the non-service entry points
// (tests, benches, the baselines' direct planner calls) zero-cost and
// signature-compatible.
//
// Determinism: stopping a search only truncates it — the token never
// injects randomness or reorders evaluations, so a search that runs to
// completion under a token is bit-identical to one run without, and a
// cancelled search leaves no state behind (each planner run builds fresh
// rng and memo state).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace karma {

/// Why a cooperative search stopped early (StopReason::kNone = it didn't).
enum class StopReason {
  kNone = 0,
  kCancelled,  ///< a caller explicitly cancelled (or all waiters left)
  kDeadline,   ///< the wall-clock deadline passed
  kBudget,     ///< the candidate-evaluation budget ran out
};

inline const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kBudget: return "budget";
  }
  return "?";
}

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Inert token: never stops, drops progress. The default for every
  /// caller that doesn't need cancellation.
  CancelToken() = default;

  /// Live token backed by shared state; copies observe and control the
  /// same search.
  static CancelToken make() {
    CancelToken token;
    token.state_ = std::make_shared<State>();
    return token;
  }

  bool valid() const { return state_ != nullptr; }

  // ---- Control side (Engine / tests) ----

  void cancel() {
    if (state_) state_->cancelled.store(true, std::memory_order_relaxed);
  }

  /// Absolute wall-clock stop time; Clock::time_point::max() = none.
  void set_deadline(Clock::time_point deadline) {
    if (state_)
      state_->deadline_ns.store(to_ns(deadline), std::memory_order_relaxed);
  }

  /// Max candidate evaluations before kBudget; <= 0 = unbounded.
  void set_max_candidates(std::int64_t n) {
    if (state_)
      state_->max_candidates.store(
          n > 0 ? n : std::numeric_limits<std::int64_t>::max(),
          std::memory_order_relaxed);
  }

  // ---- Search side (planner) ----

  /// The single cooperative check. Polled at candidate boundaries only;
  /// the order of checks fixes the reported reason when several tripped
  /// at once (explicit cancel wins over deadline over budget).
  StopReason stop_reason() const {
    if (!state_) return StopReason::kNone;
    if (state_->cancelled.load(std::memory_order_relaxed))
      return StopReason::kCancelled;
    if (to_ns(Clock::now()) >=
        state_->deadline_ns.load(std::memory_order_relaxed))
      return StopReason::kDeadline;
    if (state_->candidates.load(std::memory_order_relaxed) >=
        state_->max_candidates.load(std::memory_order_relaxed))
      return StopReason::kBudget;
    return StopReason::kNone;
  }
  bool should_stop() const { return stop_reason() != StopReason::kNone; }

  /// One candidate evaluation happened: either a full engine replay
  /// (`simulated`) or a pure memo serve. Feeds both the kBudget check and
  /// the waiters' progress snapshots.
  void count_candidate(bool simulated) const {
    if (!state_) return;
    state_->candidates.fetch_add(1, std::memory_order_relaxed);
    (simulated ? state_->simulations : state_->memo_hits)
        .fetch_add(1, std::memory_order_relaxed);
  }

  /// A new best feasible objective value (monotone non-increasing).
  void report_best(double cost) const {
    if (!state_) return;
    double seen = state_->best_cost.load(std::memory_order_relaxed);
    while (cost < seen && !state_->best_cost.compare_exchange_weak(
                              seen, cost, std::memory_order_relaxed)) {
    }
  }

  // ---- Observer side (PlanFuture::progress) ----

  std::int64_t candidates() const {
    return state_ ? state_->candidates.load(std::memory_order_relaxed) : 0;
  }
  std::int64_t simulations() const {
    return state_ ? state_->simulations.load(std::memory_order_relaxed) : 0;
  }
  std::int64_t memo_hits() const {
    return state_ ? state_->memo_hits.load(std::memory_order_relaxed) : 0;
  }
  /// Best objective seen so far; +inf until the first feasible candidate.
  double best_cost() const {
    return state_ ? state_->best_cost.load(std::memory_order_relaxed)
                  : std::numeric_limits<double>::infinity();
  }

 private:
  struct State {
    std::atomic<bool> cancelled{false};
    std::atomic<std::int64_t> deadline_ns{
        std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> max_candidates{
        std::numeric_limits<std::int64_t>::max()};
    std::atomic<std::int64_t> candidates{0};
    std::atomic<std::int64_t> simulations{0};
    std::atomic<std::int64_t> memo_hits{0};
    std::atomic<double> best_cost{std::numeric_limits<double>::infinity()};
  };

  static std::int64_t to_ns(Clock::time_point t) {
    if (t == Clock::time_point::max())
      return std::numeric_limits<std::int64_t>::max();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  std::shared_ptr<State> state_;  ///< null = inert
};

}  // namespace karma
