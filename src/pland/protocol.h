// karma-pland wire protocol: length-prefixed JSON frames over a unix
// domain socket (DESIGN.md §12).
//
// Framing is deliberately minimal: a 4-byte little-endian unsigned payload
// length, then exactly that many bytes of UTF-8 JSON. One frame = one
// envelope. The envelopes carry the repo's EXISTING versioned artifacts —
// a plan request is request_io's request JSON, a plan is plan_io's v2
// artifact, an error is request_io's error JSON — spliced in verbatim
// (util::json::Writer::raw), so the bytes a client receives for a plan
// are byte-identical to the leader's Plan::to_json(). The storm test's
// "byte-identical artifacts fleet-wide" assertion rides on that.
//
// Request envelopes (client -> daemon), all with a caller-chosen `id`
// echoed in the response so clients may pipeline:
//   {"v":1,"type":"lookup","id":N,"tenant":"...","key":"<32 hex>",
//    "calibration":"<hash>","probe":bool}
//   {"v":1,"type":"plan","id":N,"tenant":"...","request":{...}}
//   {"v":1,"type":"stats","id":N}
//   {"v":1,"type":"metrics","id":N}
//   {"v":1,"type":"ping","id":N}
//   {"v":1,"type":"shutdown","id":N}
//   {"v":1,"type":"calibrate","id":N,"table":{...}}   (null table clears)
//
// Response envelopes (daemon -> client):
//   {"v":1,"type":"lookup","id":N,"ok":true,"calibration":"<active hash>",
//    "plan":{...}|null}
//   {"v":1,"type":"lookup","id":N,"ok":false,"error":{...}}  (negative hit)
//   {"v":1,"type":"plan","id":N,"ok":true,"plan":{...}}
//   {"v":1,"type":"plan","id":N,"ok":false,"error":{...}}
//   {"v":1,"type":"stats","id":N,"ok":true,"stats":{...}}
//   {"v":1,"type":"metrics","id":N,"ok":true,"metrics":{...}}
//   {"v":1,"type":"pong","id":N,"ok":true}
//   {"v":1,"type":"shutdown","id":N,"ok":true}
//   {"v":1,"type":"calibrate","id":N,"ok":true,
//    "calibration":"<hash>","calibration_version":V}
//   {"v":1,"type":"error","id":N,"ok":false,"error":{...}}   (protocol)
//
// A lookup asks for the plan cached under a client-computed RequestKey
// (cache::request_key of the request under `calibration`; its hex()).
// The daemon answers from its cache only when `calibration` is its
// active hash. plan:null under the hash sent is a miss: the client then
// sends the request itself in a `plan` frame, which the daemon keys on
// its own, so a lookup only ever reads the cache. plan:null under
// another hash means the key is stale: the client recomputes it under
// the answer's hash and looks up again. Keys are exactly 32 lowercase
// hex digits (util::Digest128::from_hex); any other key, a missing
// `calibration` or a non-bool `probe` is a protocol error.
//
// The metrics `metrics` value is the engine registry's deterministic
// snapshot (obs::Registry::snapshot_json, DESIGN.md §15): every counter,
// gauge, and latency histogram in the process — engine, cache, and
// daemon instruments in one document.
//
// The calibrate `table` value is a calib::CalibrationTable JSON artifact
// (table.h). Installing one re-keys every request under the table's
// content hash engine-wide — stale cached plans become repair seeds
// (calib/repair.h), and lookups keyed under the old hash miss.
//
// Every envelope either side sends is written by write_envelope and every
// one it receives is parsed, once, by read_envelope: the format lives in
// this module alone. The daemon names "request" as read_envelope's lazy
// member, so a plan frame's model description is sliced out as bytes and
// never built into a DOM on a connection thread; the client names none,
// so every response byte is validated by its one parse.
//
// Frame reads/writes are blocking with EINTR retry; a frame larger than
// kMaxFrameBytes is a protocol error (the daemon answers one "error"
// envelope where it can, then closes — resynchronizing a corrupt length
// prefix is not possible). A frame's buffer grows as its bytes arrive, so
// a length prefix alone never buys memory.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "src/util/json.h"

namespace karma::pland {

inline constexpr int kProtocolVersion = 1;

/// Hard bound on one frame's payload. Plan artifacts for the paper's
/// models weigh tens of KB; 64 MiB leaves orders of magnitude of headroom
/// while keeping a garbled length prefix from looking like a 4 GiB
/// allocation request.
inline constexpr std::uint32_t kMaxFrameBytes = 64u * 1024 * 1024;

/// Writes one frame (length prefix + payload). Returns false on any write
/// failure, including a payload over kMaxFrameBytes. Thread-compatible:
/// callers serialize writes to one fd themselves.
bool write_frame(int fd, std::string_view payload);

enum class ReadStatus {
  kOk,        ///< one whole frame read into *payload
  kEof,       ///< clean close before any byte of a frame
  kError,     ///< read failure or close mid-frame
  kTooLarge,  ///< length prefix exceeds kMaxFrameBytes (do not continue)
};

/// Reads one whole frame. Blocks until the frame completes, the peer
/// closes, or an error occurs.
ReadStatus read_frame(int fd, std::string* payload);

/// Appends an envelope's own members after its v/type/id header.
using EnvelopeMembers = std::function<void(util::json::Writer&)>;

/// Writes one envelope: {"v":kProtocolVersion,"type":<type>,"id":<id>,
/// then whatever `members` appends, then }.
std::string write_envelope(std::string_view type, std::int64_t id,
                           const EnvelopeMembers& members = nullptr);

/// One received envelope, parsed once. Every span in `root` indexes the
/// payload read_envelope was given; the caller keeps that payload alive.
struct Envelope {
  util::json::Value root;
  std::int64_t id = 0;
  /// Exact bytes of the lazy member's value; empty when it is absent.
  std::string_view lazy;
};

/// Parses `payload` with one util::json::parse and checks that `v` is
/// kProtocolVersion and `id` an integer; throws std::runtime_error
/// otherwise. A named `lazy_member` is located by util::json::scan_member
/// and parsed as null (its value stays bytes, found in `lazy` and in its
/// `root` span); when the scan demurs (escaped key, odd formatting) the
/// whole payload is parsed instead, with the same result.
Envelope read_envelope(std::string_view payload,
                       std::string_view lazy_member = {});

}  // namespace karma::pland
