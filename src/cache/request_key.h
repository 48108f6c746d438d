// Content-addressed fingerprinting of PlanRequests (DESIGN.md §10).
//
// Planning is pure: a PlanRequest is a value, Engine::plan() is a
// deterministic function of it, and the Plan artifact serializes
// byte-stably. That makes planning cacheable — IF requests can be keyed
// by content. RequestKey is that key: a canonical binary encoding of
// every request field that influences the produced plan, streamed word
// by word into util::Hasher128 for a 128-bit digest. No text is built on
// the key path.
//
// Canonicalization rules:
//   - fields are emitted in the order of the declared field lists in
//     src/api/fields.h — the same lists the request JSON is written and
//     read from (no reflection, no map iteration); field names are not
//     encoded, position is the field. The device's `nvme_contention` and
//     `scale` overlays, which the JSON leaves out while identity, are
//     always encoded, contention first;
//   - every scalar is one little-endian 64-bit word: integers as two's
//     complement, bools as 0/1, enums by their integer value, doubles by
//     their IEEE-754 bit pattern (bit-exact, like %.17g in the plan
//     JSON);
//   - a string is a length word followed by its bytes packed into
//     little-endian words, the last one zero-padded;
//   - every list (layers, shape dims, successors, fleet nodes) follows a
//     count word; each optional section (`distributed`, `fleet`) follows
//     a presence word, and its fields appear only when present. The word
//     stream is therefore prefix-free: no request's stream is a prefix
//     of another's, so field values cannot impersonate structure;
//   - a layer's id is its position; model edges come from
//     Model::succs(), which the builder keeps sorted ascending, so edge
//     *insertion* order cannot leak in;
//   - the stream opens with `fp_version` (bump it whenever the encoding
//     or util::Hasher128 changes), then the plan JSON schema version:
//     bumping the schema invalidates every existing key (and the on-disk
//     entries would fail version validation anyway — two independent
//     fences).
//
// Deliberately EXCLUDED from the fingerprint:
//   - PlanRequest::probe_feasible_batch — it shapes the PlanError on the
//     failure path only, never the artifact a success produces;
//   - PlanRequest::limits (deadline / candidate budget) — patience, not
//     content: a limit decides whether the deterministic search finishes,
//     never what it produces, and an interrupted search is never cached —
//     so bounded requests share flights and cache entries with unbounded
//     ones (DESIGN.md §11);
//   - DistributedOptions::planner — PlanRequest documents that the
//     embedded copy is superseded by PlanRequest::planner (the facade has
//     exactly one set of planner knobs).
#pragma once

#include <string>

#include "src/util/hash.h"

namespace karma::api {
struct PlanRequest;
}

namespace karma::cache {

/// Stable 128-bit content key of a PlanRequest. Value type; `hex()` is
/// the on-disk entry name stem.
struct RequestKey {
  util::Digest128 digest;

  bool operator==(const RequestKey&) const = default;
  std::string hex() const { return digest.hex(); }
};

struct RequestKeyHash {
  std::size_t operator()(const RequestKey& k) const {
    return util::Digest128Hash{}(k.digest);
  }
};

/// The canonical encoding the key hashes, as the words' little-endian
/// bytes. Exposed for tests, debugging (e.g. diffing why two requests
/// miss each other) and plannerbench's cache.fingerprint_kb metric; the
/// key path never builds it.
///
/// `calibration` is the active CalibrationTable's content hash, or ""
/// when planning against the uncorrected analytic model (DESIGN.md §13).
/// It joins the preamble, so installing, changing, or clearing a table
/// changes every key: a plan searched under stale cost constants can
/// never be served as current — it becomes a calib::repair seed instead.
std::string request_fingerprint(const api::PlanRequest& request,
                                const std::string& calibration = {});

/// Content key of `request`: the same words streamed into a
/// util::Hasher128, equal to digest128(request_fingerprint(request,
/// calibration)).
RequestKey request_key(const api::PlanRequest& request,
                       const std::string& calibration = {});

}  // namespace karma::cache
