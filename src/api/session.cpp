#include "src/api/session.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/api/plan_io.h"

namespace karma::api {

// ---------------------------------------------------------------------------
// OptimizerSpec
// ---------------------------------------------------------------------------

double OptimizerSpec::state_multiplier() const {
  if (state_bytes_per_param_byte >= 0.0) return state_bytes_per_param_byte;
  switch (kind) {
    case Kind::kNone: return 0.0;
    case Kind::kSgd: return 1.0;          // host master copy
    case Kind::kSgdMomentum: return 2.0;  // + momentum buffer
    case Kind::kAdam: return 3.0;         // + first and second moments
  }
  return 0.0;
}

Bytes OptimizerSpec::host_state_bytes(Bytes param_bytes) const {
  if (!host_resident) return 0;
  return static_cast<Bytes>(static_cast<double>(param_bytes) *
                            state_multiplier());
}

// ---------------------------------------------------------------------------
// PlanError
// ---------------------------------------------------------------------------

const char* plan_error_code_name(PlanErrorCode code) {
  switch (code) {
    case PlanErrorCode::kInvalidRequest: return "invalid-request";
    case PlanErrorCode::kWeightsExceedDevice: return "weights-exceed-device";
    case PlanErrorCode::kLayerExceedsDevice: return "layer-exceeds-device";
    case PlanErrorCode::kTierOverflow: return "tier-overflow";
    case PlanErrorCode::kNoFeasibleBlocking: return "no-feasible-blocking";
    case PlanErrorCode::kParseError: return "parse-error";
    case PlanErrorCode::kCancelled: return "cancelled";
    case PlanErrorCode::kDeadline: return "deadline-exceeded";
    case PlanErrorCode::kInternalError: return "internal-error";
    case PlanErrorCode::kOverloaded: return "overloaded";
    case PlanErrorCode::kUnavailable: return "unavailable";
  }
  return "?";
}

std::string PlanError::describe() const {
  std::ostringstream os;
  os << "PlanError[" << plan_error_code_name(code) << "] " << message;
  if (!model.empty()) os << "\n  model:  " << model;
  if (!device.empty()) os << "\n  device: " << device;
  if (violating_layer >= 0) os << "\n  violating layer: " << violating_layer;
  if (violating_block >= 0) os << "\n  violating block: " << violating_block;
  for (const auto& d : deficits) {
    os << "\n  tier " << tier::tier_name(d.tier) << ": needs "
       << format_bytes(d.required) << " of " << format_bytes(d.capacity);
    if (d.deficit() > 0) os << " (short " << format_bytes(d.deficit()) << ")";
  }
  if (nearest_feasible_batch > 0)
    os << "\n  nearest feasible batch: " << nearest_feasible_batch;
  if (probe_candidates > 0) {
    os << "\n  feasibility probes: " << probe_candidates
       << " candidate plan(s) evaluated";
    if (probe_cache_hits > 0)
      os << ", " << probe_cache_hits << " served from the plan cache";
  }
  if (partial)
    os << "\n  partial: best-so-far plan attached (" << partial->blocks().size()
       << " blocks, iteration " << format_seconds(partial->iteration_time)
       << ")";
  if (from_negative_cache)
    os << "\n  (served from the negative-result cache)";
  if (retry_after > 0)
    os << "\n  retry after: " << format_seconds(retry_after);
  return os.str();
}

// ---------------------------------------------------------------------------
// Plan artifact
// ---------------------------------------------------------------------------

sim::ExecutionTrace Plan::simulate() const {
  const sim::Engine engine(device);
  return engine.run(schedule);
}

std::string Plan::to_json() const { return plan_to_json(*this); }

Expected<Plan, PlanError> Plan::from_json(const std::string& json) {
  return plan_from_json(json);
}

std::vector<train::OocBlock> Plan::derive_ooc_blocks(
    std::size_t num_layers) const {
  if (model_layers <= 0)
    throw std::invalid_argument("derive_ooc_blocks: plan has no layers");
  if (num_layers == 0)
    throw std::invalid_argument("derive_ooc_blocks: empty target network");
  const auto m = static_cast<std::int64_t>(model_layers);
  const auto n = static_cast<std::int64_t>(num_layers);
  std::vector<train::OocBlock> out;
  for (std::size_t i = 0; i < schedule.blocks.size(); ++i) {
    // Floor-scaled boundaries are monotone, cover [0, n) contiguously, and
    // reduce to the identity when n == m.
    const auto first =
        static_cast<std::size_t>(schedule.blocks[i].first_layer * n / m);
    const auto last =
        static_cast<std::size_t>(schedule.blocks[i].last_layer * n / m);
    if (first == last) continue;  // block collapsed by downscaling
    train::OocBlock b;
    b.first_layer = first;
    b.last_layer = last;
    b.policy = policies[i];
    out.push_back(b);
  }
  if (out.empty())
    throw std::invalid_argument("derive_ooc_blocks: all blocks collapsed");
  return out;
}

train::OocExecutor Plan::bind_executor(train::Sequential* net,
                                       Bytes pool_capacity,
                                       Bytes host_capacity) const {
  if (net == nullptr || net->size() == 0)
    throw std::invalid_argument("bind_executor: empty network");
  if (distributed())
    throw std::invalid_argument(
        "bind_executor: distributed plans have no single-device executor");
  // The planner's host pre-charges carry over to the numeric twin: the
  // optimizer reserve and any pinned shard baseline occupy the bounded
  // host store exactly as they occupy the engine's ledger.
  return train::OocExecutor(
      net, derive_ooc_blocks(net->size()), pool_capacity, host_capacity,
      reserved_host_bytes + schedule.host_baseline_resident);
}

}  // namespace karma::api
