// Structured planning errors for the karma::api facade (DESIGN.md §8).
//
// The search layers (KarmaPlanner::plan, plan_data_parallel) throw bare
// std::runtime_error with a prose message; callers who want to react —
// shrink the batch, add a tier, route to a bigger node — have nothing to
// parse. Engine::plan() instead returns Expected<Plan, PlanError>: the
// error names the failing component (layer / block), quantifies the
// shortfall per storage tier, and, when the request allows it, reports the
// nearest batch size that would have been feasible (found by bisection).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "src/tier/hierarchy.h"
#include "src/util/units.h"

namespace karma::api {

struct Plan;  // full definition in src/api/session.h

enum class PlanErrorCode {
  kInvalidRequest,      ///< malformed request (empty model, bad options)
  kWeightsExceedDevice, ///< resident weights+grads alone overflow HBM
  kLayerExceedsDevice,  ///< one layer's activations cannot fit any blocking
  kTierOverflow,        ///< offload demand exceeds every storage tier
  kNoFeasibleBlocking,  ///< search exhausted without a deadlock-free plan
  kParseError,          ///< plan JSON failed to parse / validate
  kCancelled,           ///< the caller cancelled the search (PlanFuture)
  kDeadline,            ///< deadline or candidate budget ran out mid-search
  kInternalError,       ///< invariant violation inside the search — a bug;
                        ///< waiters are settled with this, then the
                        ///< exception is rethrown to surface loudly
  kOverloaded,          ///< admission control shed the request (karma-pland
                        ///< queue depth exceeded); retry_after is set
  kUnavailable,         ///< transport failure talking to karma-pland
                        ///< (connect/read/write error, daemon gone)
};

const char* plan_error_code_name(PlanErrorCode code);

/// How far one storage tier falls short of what the request demands of it.
struct TierDeficit {
  tier::Tier tier = tier::Tier::kDevice;
  Bytes required = 0;  ///< bytes the plan would need to place on this tier
  Bytes capacity = 0;  ///< what the tier actually offers
  Bytes deficit() const { return required > capacity ? required - capacity : 0; }
};

/// Structured diagnosis of an infeasible (or malformed) PlanRequest.
struct PlanError {
  PlanErrorCode code = PlanErrorCode::kNoFeasibleBlocking;
  std::string message;         ///< human-readable one-liner
  std::string model;           ///< model name from the request
  std::string device;          ///< device name from the request
  int violating_layer = -1;    ///< layer id that breaks feasibility, or -1
  int violating_block = -1;    ///< finest-blocking block holding that layer
  std::vector<TierDeficit> deficits;  ///< per-tier shortfalls (may be empty)
  /// Largest batch size at which the same request plans successfully,
  /// found by bisection when PlanRequest::probe_feasible_batch is set;
  /// -1 = unknown / not probed / nothing feasible.
  std::int64_t nearest_feasible_batch = -1;
  /// How many candidate plans the bisection evaluated to find it (each
  /// probe is one re-batched planner run), and how many of those the
  /// session's plan cache answered without re-planning — successful
  /// probes are cached as full plan artifacts, so repeated diagnoses of
  /// the same model get cheaper. Both 0 when the bisection did not run.
  int probe_candidates = 0;
  int probe_cache_hits = 0;
  /// For kCancelled/kDeadline: the best feasible plan the interrupted
  /// search had found before it stopped, when one exists. A usable (if
  /// unpolished) artifact — it simulates, serializes, and binds like any
  /// other plan, but is never inserted into the plan cache (only
  /// completed searches are). Shared because several waiters of one
  /// single-flight search may receive the same snapshot.
  std::shared_ptr<const Plan> partial;
  /// True when this error was served from the negative-result cache
  /// instead of a fresh diagnosis (DESIGN.md §11). Diagnostic only —
  /// excluded from equality of interest; the structured fields match the
  /// originally diagnosed error exactly.
  bool from_negative_cache = false;
  /// For kOverloaded: how long the daemon suggests waiting before the
  /// retry (its queues are expected to have drained by then). 0 otherwise.
  Seconds retry_after = 0;

  /// Multi-line report suitable for logs and CLI output.
  std::string describe() const;
};

/// Minimal expected<T, E> (std::expected is C++23; this repo is C++20).
/// Holds exactly one of a value or an error; value access on an error (or
/// vice versa) throws std::bad_variant_access rather than being UB.
template <typename T, typename E>
class Expected {
 public:
  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Expected(E error) : state_(std::in_place_index<1>, std::move(error)) {}

  bool has_value() const { return state_.index() == 0; }
  explicit operator bool() const { return has_value(); }

  T& value() & { return std::get<0>(state_); }
  const T& value() const& { return std::get<0>(state_); }
  T&& value() && { return std::get<0>(std::move(state_)); }

  E& error() & { return std::get<1>(state_); }
  const E& error() const& { return std::get<1>(state_); }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, E> state_;
};

}  // namespace karma::api
