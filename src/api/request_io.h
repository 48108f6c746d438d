// PlanRequest / PlanError artifact serialization — the wire half of the
// karma-pland protocol (DESIGN.md §12).
//
// plan_io gave Plan a deterministic JSON form; request_io completes the
// triangle so a planning exchange can cross a process boundary:
//
//   request_to_json / request_from_json — a PlanRequest round-trips with
//       its cache identity intact: cache::request_key(parse(serialize(r)))
//       == cache::request_key(r), bit for bit. Both directions and the key
//       walk the same declared field lists (src/api/fields.h), so the
//       schema covers exactly the fields the key covers (model graph,
//       device, planner knobs, optimizer, distributed, fleet) plus the
//       delivery fields the key leaves out (search limits,
//       probe_feasible_batch) that a remote server still needs to honor.
//   error_to_json / error_from_json — a structured PlanError round-trips
//       including its attached partial plan (embedded as a nested v2 plan
//       artifact via Writer::raw, so the bytes match a standalone
//       to_json() exactly).
//
// tests/golden/request_fixture.json and error_fixture.json pin the
// bytes. Like the plan schema, the request schema is versioned and
// readers reject versions they do not understand.
#pragma once

#include <string>
#include <string_view>

#include "src/api/errors.h"
#include "src/place/fleet.h"

namespace karma::api {

struct PlanRequest;

/// v1: initial wire schema (PR 6, karma-pland).
/// v2: adds the `fleet` key (null | FleetSpec object, DESIGN.md §16).
///     Readers still accept v1 payloads (no fleet key -> no fleet), so
///     old clients keep working against a new daemon.
inline constexpr int kRequestJsonVersion = 2;

/// Serializes `request` to the versioned JSON schema. Deterministic:
/// equal requests produce byte-identical strings.
std::string request_to_json(const PlanRequest& request);

/// Parses a request artifact back. Returns PlanError{kParseError} on
/// malformed input or unknown schema versions. Key-preserving:
/// cache::request_key of the parsed request equals that of the original.
Expected<PlanRequest, PlanError> request_from_json(std::string_view json);

/// Serializes a structured PlanError, embedding the attached partial plan
/// (when present) as a nested plan artifact.
std::string error_to_json(const PlanError& error);

/// Parses a serialized PlanError back, reconstructing the partial plan.
/// A malformed envelope still yields a PlanError — kParseError describing
/// the envelope failure — so callers always get a surfaceable error.
PlanError error_from_json(std::string_view json);

/// Serializes a FleetSpec (the same component the v2 request schema
/// embeds, usable standalone for fixtures and tooling). Deterministic:
/// equal fleets produce byte-identical strings.
std::string fleet_to_json(const place::FleetSpec& fleet);

/// Parses a fleet artifact back; throws std::runtime_error on malformed
/// input (request_from_json maps it to kParseError).
place::FleetSpec fleet_from_json(std::string_view json);

}  // namespace karma::api
