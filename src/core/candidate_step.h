// The one candidate step of every planner search (DESIGN.md §14):
// KarmaPlanner's phases and plan_data_parallel's block-count scan both
// poll the token, serve or score a candidate, count it and keep the
// incumbent through it, and supply only how a candidate is scored and how
// a winner becomes a PlanResult.
#pragma once

#include <chrono>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/planner.h"
#include "src/solver/memo.h"
#include "src/util/infeasible.h"

namespace karma::core {

class CandidateStep {
 public:
  /// The objective of a candidate that cannot run (deadlock, tier
  /// overflow); never becomes the incumbent.
  static constexpr double kInfeasible =
      std::numeric_limits<double>::infinity();

  /// `control` and `on_improved` follow the KarmaPlanner::plan contract
  /// and must outlive the step; the search clock starts here.
  CandidateStep(const CancelToken& control,
                const std::function<void(const PlanResult&)>& on_improved)
      : control_(control), on_improved_(on_improved) {}
  // Portfolio workers hold the step's address.
  CandidateStep(const CandidateStep&) = delete;
  CandidateStep& operator=(const CandidateStep&) = delete;

  /// The objective of the candidate `blocks` under `policies`: polls the
  /// token (raising SearchInterrupted), then serves the memoized value or
  /// computes `eval()` — kInfeasible when it throws InfeasibleError — and
  /// stores it. Exact: a value is a deterministic function of its
  /// candidate, so the memo never changes a plan, and portfolio workers
  /// racing on one candidate store the same value. `key` is the caller's
  /// buffer for the packed memo key.
  template <typename Eval>
  double score(const std::vector<sim::Block>& blocks,
               const std::vector<BlockPolicy>& policies, std::string& key,
               Eval&& eval) {
    // The cooperative cancellation point, at candidate boundaries only
    // (never mid-simulation), so an interrupt never leaves a
    // half-evaluated candidate behind. SearchInterrupted tunnels through
    // the InfeasibleError handlers by design.
    if (const StopReason reason = control_.stop_reason();
        reason != StopReason::kNone)
      throw SearchInterrupted{reason};
    pack_candidate_key(blocks, policies, key);
    if (const auto memoized = memo_.find(key)) {
      control_.count_candidate(/*simulated=*/false);
      return *memoized;
    }
    control_.count_candidate(/*simulated=*/true);
    double value = kInfeasible;
    try {
      value = eval();
    } catch (const InfeasibleError&) {
    }
    memo_.store(key, value);
    return value;
  }

  /// score(), then keeps the incumbent: a feasible value below it becomes
  /// the new best through `materialize()` (the full PlanResult), which is
  /// published through on_improved BEFORE report_best — an observer that
  /// sees the best cost become finite also finds the plan attached.
  /// Returns whether the candidate became the best. Serial phases only.
  template <typename Eval, typename Materialize>
  bool offer(const std::vector<sim::Block>& blocks,
             const std::vector<BlockPolicy>& policies, std::string& key,
             Eval&& eval, Materialize&& materialize) {
    const double value = score(blocks, policies, key, eval);
    if (value == kInfeasible || (best_ && value >= best_->iteration_time))
      return false;
    best_ = materialize();
    if (on_improved_) on_improved_(*best_);
    control_.report_best(best_->iteration_time);
    return true;
  }

  /// The incumbent; nullopt until a candidate was feasible.
  const std::optional<PlanResult>& best() const { return best_; }

  /// Hands the incumbent over with `stats`' candidate counters and search
  /// time filled in (the caller sets the rest). Every evaluation either
  /// replayed or was a memo hit: candidates == simulations + memo_hits.
  PlanResult finish(SearchStats stats) {
    stats.candidates = memo_.lookups();
    stats.memo_hits = memo_.hits();
    stats.simulations = stats.candidates - stats.memo_hits;
    stats.search_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start_)
                               .count();
    best_->search_stats = stats;
    return std::move(*best_);
  }

 private:
  const CancelToken& control_;
  const std::function<void(const PlanResult&)>& on_improved_;
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  solver::SharedEvalMemo<std::string, double> memo_;
  std::optional<PlanResult> best_;
};

}  // namespace karma::core
