// The typed infeasibility channel shared by the simulator, the tier
// ledgers, and the schedule generator.
//
// A candidate plan can be *infeasible* — it deadlocks in the engine, its
// spill routing finds no tier with room, its worst-case residency exceeds
// a tier's capacity. The searches in src/core and src/solver treat those
// as "score this candidate +inf and move on". Before this type existed
// they threw plain std::runtime_error (or worse, std::invalid_argument),
// and the feasibility filters had to catch std::exception wholesale —
// which silently classified std::bad_alloc and ledger logic_errors as
// "infeasible candidate" instead of crashing. Everything that means
// "this plan cannot run on this device" now throws InfeasibleError, and
// the filters catch exactly that; programmer errors (mispaired ledger
// releases, malformed op lists) stay logic_error / invalid_argument and
// propagate.
//
// InfeasibleError derives from std::runtime_error so pre-existing
// boundary handlers (the api::Engine diagnostics layer catches
// std::runtime_error to build PlanError) keep working unchanged.
#pragma once

#include <stdexcept>
#include <string>

namespace karma {

class InfeasibleError : public std::runtime_error {
 public:
  explicit InfeasibleError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace karma
