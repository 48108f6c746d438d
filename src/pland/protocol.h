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
//   {"v":1,"type":"error","id":0,...}  (code overloaded: past the cap)
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
// The `metrics` value is the engine registry's deterministic snapshot
// (obs::Registry::snapshot_json, DESIGN.md §15): every instrument in the
// process — engine, cache and daemon — in one document.
//
// The calibrate `table` value is a calib::CalibrationTable JSON artifact
// (table.h). Installing one re-keys every request under the table's
// content hash engine-wide — stale cached plans become repair seeds
// (calib/repair.h), and lookups keyed under the old hash miss.
//
// On both sides write_envelope is the only envelope writer and
// read_envelope the only reader. The reader pulls each member the protocol
// knows straight from the bytes (util::json::Reader, no DOM), validated,
// as its exact bytes. A plan frame's `request` is only delimited: the plan
// worker's request_from_json reports a bad request as the plan's own
// error, and no reader thread parses a model description.
//
// Frame reads/writes block, with EINTR retry; a client waits as long as
// the daemon takes. The daemon's sockets and calls carry kIoDeadline: a
// connection may idle between frames, but once a frame's first byte has
// moved, the frame must move within the deadline (DESIGN.md §12). A frame
// over kMaxFrameBytes is a protocol error that closes the connection. A
// frame's buffer grows as its bytes arrive: a prefix alone buys no memory.
#pragma once

#include <chrono>
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

/// The daemon's one I/O deadline, in both directions: every accepted
/// socket carries it as SO_RCVTIMEO and SO_SNDTIMEO, and the daemon passes
/// it to read_frame/write_frame.
inline constexpr std::chrono::milliseconds kIoDeadline{2000};

/// Writes one frame (length prefix + payload). Returns false on any write
/// failure, including a payload over kMaxFrameBytes. With a nonzero
/// `deadline`, which must be the socket's SO_SNDTIMEO, a send that waits
/// it out with the peer reading nothing fails too. Thread-compatible:
/// callers serialize writes to one fd themselves.
bool write_frame(int fd, std::string_view payload,
                 std::chrono::milliseconds deadline = {});

enum class ReadStatus {
  kOk,        ///< one whole frame read into *payload
  kEof,       ///< clean close before any byte of a frame
  kError,     ///< read failure, close or timeout mid-frame
  kTooLarge,  ///< length prefix exceeds kMaxFrameBytes (do not continue)
};

/// Reads one whole frame. Blocks until the frame completes, the peer
/// closes, or an error occurs. Before the frame's first byte a read that
/// times out (SO_RCVTIMEO) is retried: the connection is idling. After it,
/// a timeout is kError, and so is a frame past a nonzero `deadline`.
ReadStatus read_frame(int fd, std::string* payload,
                      std::chrono::milliseconds deadline = {});

/// Appends an envelope's own members after its v/type/id header.
using EnvelopeMembers = std::function<void(util::json::Writer&)>;

/// Writes one envelope: {"v":kProtocolVersion,"type":<type>,"id":<id>,
/// then whatever `members` appends, then }.
std::string write_envelope(std::string_view type, std::int64_t id,
                           const EnvelopeMembers& members = nullptr);

/// One member of a received envelope: its exact bytes, one JSON value
/// (null included), or empty when the envelope does not carry it.
struct Member {
  const char* name;
  std::string_view bytes = {};

  bool absent() const { return bytes.empty(); }
  bool is_null() const { return bytes == "null"; }
  /// The bytes; throws "missing key '<name>'" when absent.
  std::string_view value() const;
  /// The member read as a string / a bool; throws when absent or of
  /// another type.
  std::string string() const;
  bool boolean() const;
};

/// One received envelope. The members index the payload read_envelope was
/// given; the caller keeps that payload alive.
struct Envelope {
  std::int64_t id = 0;
  Member type{"type"}, ok{"ok"}, tenant{"tenant"}, key{"key"},
      calibration{"calibration"}, probe{"probe"}, request{"request"},
      plan{"plan"}, error{"error"}, table{"table"}, stats{"stats"},
      metrics{"metrics"};
};

/// Reads `payload` in one pass and checks, in this order, that it is
/// well-formed, that `v` is kProtocolVersion and that `id` is an integer;
/// throws std::runtime_error otherwise. Members it does not know are
/// skipped; a duplicate keeps its first value. The checks of the other
/// members' types are the caller's, once it knows the id.
Envelope read_envelope(std::string_view payload);

}  // namespace karma::pland
