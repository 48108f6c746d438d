#include "src/api/plan_io.h"

#include <stdexcept>

#include "src/api/fields.h"
#include "src/api/session.h"
#include "src/util/json.h"

namespace karma::api {
namespace {

using util::json::Writer;

/// Placement artifact schema version (DESIGN.md §16). Independent of the
/// plan schema so the fixture format can evolve on its own.
constexpr int kPlacementJsonVersion = 1;

void write_placement(Writer& w, const place::PlacementPlan& p) {
  w.begin_object();
  w.key("version"); w.value(kPlacementJsonVersion);
  io::JsonOut(w).members(p);
  w.end_object();
}

/// Reads the placement members of the object open in `in`.
place::PlacementPlan read_placement(io::JsonPull& in) {
  in.version(kPlacementJsonVersion, kPlacementJsonVersion, "placement schema");
  place::PlacementPlan p;
  in.members(p);
  if (p.owner.size() != p.blocks.size())
    throw std::runtime_error("placement owner/blocks length mismatch");
  const int num_nodes = static_cast<int>(p.nodes.size());
  for (const int owner : p.owner)
    if (owner < 0 || owner >= num_nodes)
      throw std::runtime_error("placement owner index out of range");
  if (p.straggler < -1 || p.straggler >= num_nodes)
    throw std::runtime_error("placement straggler index out of range");
  return p;
}

/// Structural validation: a parseable-but-corrupt artifact must not reach
/// the engine, which indexes costs/ops by these fields. Returns the
/// reason, or "" for a sound plan.
std::string structural_error(const Plan& plan) {
  const sim::Plan& s = plan.schedule;
  if (plan.policies.size() != s.blocks.size())
    return "policies/blocks length mismatch";
  if (s.costs.size() != s.blocks.size()) return "costs/blocks length mismatch";
  if (!s.stage_of.empty() && s.stage_of.size() != s.ops.size())
    return "stage_of/ops length mismatch";
  const int num_blocks = static_cast<int>(s.blocks.size());
  const int num_ops = static_cast<int>(s.ops.size());
  for (int i = 0; i < num_ops; ++i) {
    const sim::Op& op = s.ops[static_cast<std::size_t>(i)];
    if (op.block < 0 || op.block >= num_blocks)
      return "op " + std::to_string(i) + " block index out of range";
    if (op.after_op < -1 || op.after_op >= num_ops)
      return "op " + std::to_string(i) + " after_op out of range";
  }
  if (plan.model_layers < 0) return "negative model layer count";
  for (int b = 0; b < num_blocks; ++b) {
    const sim::Block& blk = s.blocks[static_cast<std::size_t>(b)];
    if (blk.first_layer < 0 || blk.last_layer <= blk.first_layer)
      return "block " + std::to_string(b) + " has an invalid range";
    if (plan.model_layers > 0 && blk.last_layer > plan.model_layers)
      return "block " + std::to_string(b) + " exceeds the model layer count";
  }
  return {};
}

}  // namespace

std::string plan_to_json(const Plan& plan) {
  Writer w;
  w.begin_object();
  w.key("version"); w.value(kPlanJsonVersion);
  io::JsonOut(w).members(plan);
  // Trailing and conditional: non-fleet artifacts keep their exact v2
  // bytes (cache entries, goldens).
  if (plan.placement) {
    w.key("fleet");
    write_placement(w, *plan.placement);
  }
  w.end_object();
  return w.take();
}

Expected<Plan, PlanError> plan_from_json(std::string_view json) {
  const auto fail = [](const std::string& why) {
    PlanError e;
    e.code = PlanErrorCode::kParseError;
    e.message = "plan_from_json: " + why;
    return e;
  };
  try {
    io::JsonPull in(json);
    in.version(kPlanJsonVersion, kPlanJsonVersion, "schema");
    Plan plan;
    in.members(plan);
    if (const std::string why = structural_error(plan); !why.empty())
      return fail(why);
    in.object("fleet", [&] { plan.placement = read_placement(in); },
              /*optional=*/true);
    in.finish();
    return plan;
  } catch (const std::exception& ex) {
    return fail(ex.what());
  }
}

std::string placement_to_json(const place::PlacementPlan& placement) {
  Writer w;
  write_placement(w, placement);
  return w.take();
}

place::PlacementPlan placement_from_json(std::string_view json) {
  io::JsonPull in(json);
  place::PlacementPlan p = read_placement(in);
  in.finish();
  return p;
}

}  // namespace karma::api
