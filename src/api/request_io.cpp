#include "src/api/request_io.h"

#include <stdexcept>

#include "src/api/fields.h"
#include "src/api/plan_io.h"
#include "src/api/session.h"
#include "src/util/json.h"

namespace karma::api {
namespace {

using util::json::Writer;

// The model is the one request member that is not a field list: it is
// built by add_layer, and only its skip edges travel. Model::add_layer
// wires every chain edge id-1 -> id itself, so add_layer + add_edge(skips)
// reconstructs the graph exactly (succs stay sorted — the key sees no
// drift).

void write_model(Writer& w, const graph::Model& model) {
  io::JsonOut out(w);
  w.begin_object();
  out("name", model.name());
  out("dtype_bytes", model.dtype_bytes());
  out("act_scale", model.activation_memory_scale());
  out("layers", model.layers());
  w.key("skips");
  w.begin_array();
  for (const auto& layer : model.layers()) {
    for (const int s : model.succs(layer.id)) {
      if (s == layer.id + 1) continue;
      w.begin_array();
      w.value(layer.id);
      w.value(s);
      w.end_array();
    }
  }
  w.end_array();
  w.end_object();
}

/// Reads the model members of the object open in `in`, layers and skips
/// straight into the add_layer/add_edge rebuild.
graph::Model read_model(io::JsonPull& in) {
  std::string name;
  int dtype_bytes = 0;
  double act_scale = 0.0;
  in("name", name);
  in("dtype_bytes", dtype_bytes);
  in("act_scale", act_scale);
  graph::Model model(std::move(name), dtype_bytes);
  model.set_activation_memory_scale(act_scale);
  in.each<graph::Layer>("layers", [&](graph::Layer&& layer) {
    model.add_layer(std::move(layer));
  });
  in.each<std::vector<int>>("skips", [&](std::vector<int>&& edge) {
    if (edge.size() != 2) throw std::runtime_error("bad skip edge");
    model.add_edge(edge[0], edge[1]);
  });
  model.validate();
  return model;
}

/// Fleet component schema version, independent of the request envelope
/// (fleet_to_json is also a standalone fixture format).
constexpr int kFleetJsonVersion = 1;

void write_fleet(Writer& w, const place::FleetSpec& f) {
  w.begin_object();
  w.key("version"); w.value(kFleetJsonVersion);
  io::JsonOut(w).members(f);
  w.end_object();
}

/// Reads the fleet members of the object open in `in`.
place::FleetSpec read_fleet(io::JsonPull& in) {
  in.version(kFleetJsonVersion, kFleetJsonVersion, "fleet schema");
  place::FleetSpec f;
  in.members(f);
  return f;
}

PlanError parse_fail(const char* who, const std::string& why) {
  PlanError e;
  e.code = PlanErrorCode::kParseError;
  e.message = std::string(who) + ": " + why;
  return e;
}

}  // namespace

std::string request_to_json(const PlanRequest& request) {
  Writer w;
  io::JsonOut out(w);
  w.begin_object();
  out("version", kRequestJsonVersion);
  w.key("model"); write_model(w, request.model);
  out("device", request.device);
  out("planner", request.planner);
  out("optimizer", request.optimizer);
  out("distributed", request.distributed);
  w.key("fleet");
  if (request.fleet) write_fleet(w, *request.fleet);
  else w.null();
  out("probe_feasible_batch", request.probe_feasible_batch);
  out("limits", request.limits);
  w.end_object();
  return w.take();
}

Expected<PlanRequest, PlanError> request_from_json(std::string_view json) {
  try {
    io::JsonPull in(json);
    // v1 (pre-fleet) payloads stay readable: they simply carry no fleet.
    const std::int64_t version = in.version(1, kRequestJsonVersion, "schema");
    PlanRequest request;
    in.object("model", [&] { request.model = read_model(in); });
    in("device", request.device);
    in("planner", request.planner);
    in("optimizer", request.optimizer);
    in("distributed", request.distributed);
    if (version >= 2)
      in.at("fleet", [&](util::json::Reader& fleet) {
        if (!fleet.null()) in.object([&] { request.fleet = read_fleet(in); });
      });
    in("probe_feasible_batch", request.probe_feasible_batch);
    in("limits", request.limits);
    in.finish();
    return request;
  } catch (const std::exception& ex) {
    return parse_fail("request_from_json", ex.what());
  }
}

std::string error_to_json(const PlanError& error) {
  Writer w;
  w.begin_object();
  io::JsonOut(w).members(error);
  w.key("partial");
  // Spliced verbatim so the embedded artifact is byte-identical to the
  // plan's standalone to_json() — the cross-process byte-stability the
  // storm test asserts extends to error payloads.
  if (error.partial) w.raw(plan_to_json(*error.partial));
  else w.null();
  w.end_object();
  return w.take();
}

PlanError error_from_json(std::string_view json) {
  try {
    io::JsonPull in(json);
    PlanError error;
    in.members(error);
    std::string_view partial;
    in.at("partial", [&](util::json::Reader& p) {
      if (!p.null()) partial = p.skip();
    });
    in.finish();
    if (!partial.empty()) {
      // The plan reader takes the artifact's exact bytes from the envelope.
      auto plan = plan_from_json(partial);
      if (!plan)
        return parse_fail("error_from_json",
                          "bad partial plan: " + plan.error().message);
      error.partial = std::make_shared<const Plan>(std::move(plan).value());
    }
    return error;
  } catch (const std::exception& ex) {
    return parse_fail("error_from_json", ex.what());
  }
}

std::string fleet_to_json(const place::FleetSpec& fleet) {
  Writer w;
  write_fleet(w, fleet);
  return w.take();
}

place::FleetSpec fleet_from_json(std::string_view json) {
  io::JsonPull in(json);
  place::FleetSpec f = read_fleet(in);
  in.finish();
  return f;
}

}  // namespace karma::api
