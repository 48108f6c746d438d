// karma::api::RemoteSession — an Engine-shaped client for karma-pland
// (DESIGN.md §12).
//
// Where Engine::plan() plans in-process against the process-local
// Engine, RemoteSession::connect() plans against the node's planning
// daemon over its unix socket, so EVERY process on the machine shares one
// plan cache, one single-flight, and one admission policy. The planning
// surface is the same: plan() takes the same PlanRequest and returns the
// same Expected<Plan, PlanError> — errors the daemon diagnoses (including
// kOverloaded sheds with retry_after) come back structurally intact, and
// transport failures surface as PlanError{kUnavailable} rather than a
// broken pipe.
//
// The raw artifact is also exposed (plan_raw) because the wire carries the
// engine's Plan::to_json() bytes verbatim: clients that persist or compare
// artifacts (karma-planctl, the storm test) keep byte-identity end to end
// without a reserialize.
//
// plan_raw is key-first: the client keys its own request
// (cache::request_key under the last calibration hash it has seen, "" at
// connect) and sends a `lookup` of those 128 bits. A warm hit therefore
// never serializes, ships or parses the model. The daemon serves the key
// only under its active calibration; otherwise it answers plan:null with
// the active hash, which the client adopts before it looks up once more.
// A miss under the active hash sends the request itself in a `plan` frame,
// which the daemon keys on its own — a client's key only ever chooses
// which cached artifact it reads.
//
// Every verb is one call(): one envelope out (pland::write_envelope), then
// frames in until the response echoing its id arrives, each read exactly
// once (pland::read_envelope, which validates a plan by skipping it; the
// plan reader then reads the bytes) — so the client holds no envelope
// format of its own.
//
// Thread-safety: a RemoteSession serializes its calls internally (one
// in-flight request per connection; the calibration hash is guarded by
// the same mutex); open one per thread for parallelism.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "src/api/errors.h"
#include "src/api/session.h"
#include "src/pland/protocol.h"

namespace karma::api {

class RemoteSession {
 public:
  /// Connects to the daemon at `socket_path`. Requests carry `tenant` for
  /// fairness accounting; empty = the anonymous tenant. Failure to connect
  /// is PlanError{kUnavailable}.
  static Expected<RemoteSession, PlanError> connect(
      const std::string& socket_path, std::string tenant = {});

  RemoteSession(RemoteSession&& other) noexcept;
  RemoteSession& operator=(RemoteSession&& other) noexcept;
  ~RemoteSession();

  RemoteSession(const RemoteSession&) = delete;
  RemoteSession& operator=(const RemoteSession&) = delete;

  /// Remote Engine::plan — blocks until the daemon answers (a cold miss
  /// waits for the fleet-wide search). A hit costs one `lookup` round trip
  /// (two when the session's calibration hash was stale); a miss adds one
  /// `plan` round trip.
  Expected<Plan, PlanError> plan(const PlanRequest& request);

  /// Same, but returns the plan artifact's exact wire bytes.
  Expected<std::string, PlanError> plan_raw(const PlanRequest& request);

  /// The daemon's stats JSON (DaemonStats::to_json bytes).
  Expected<std::string, PlanError> stats_json();

  /// The daemon engine registry's metrics snapshot
  /// (obs::Registry::snapshot_json bytes, DESIGN.md §15): every counter,
  /// gauge, and latency histogram in the daemon process.
  Expected<std::string, PlanError> metrics_json();

  /// Installs a CalibrationTable (its to_json bytes, spliced verbatim into
  /// the calibrate envelope) on the daemon's engine, node-wide; empty
  /// `table_json` clears back to the analytic model. Returns the daemon's
  /// new active calibration hash ("" when cleared). Malformed tables come
  /// back as the daemon's kInvalidRequest error. The session keys its
  /// next lookups under the returned hash.
  Expected<std::string, PlanError> calibrate(const std::string& table_json);

  /// Round-trips a ping.
  bool ping();

  /// Asks the daemon to shut down gracefully; true once it acknowledges.
  bool shutdown_server();

  const std::string& tenant() const { return tenant_; }

 private:
  RemoteSession(int fd, std::string tenant);

  /// Sends one `type` envelope carrying `members` and reads frames until
  /// the response echoing its id arrives, reading each one once. Returns
  /// response member `result`: a JSON string as its value, null as "",
  /// anything else as its exact (validated) bytes. A response's
  /// `calibration` member, when present, becomes the session's
  /// calibration hash. `ok:false` is
  /// the daemon's PlanError; a lost connection or a malformed response is
  /// PlanError{kUnavailable}.
  Expected<std::string, PlanError> call(std::string_view type,
                                        const pland::EnvelopeMembers& members,
                                        pland::Member pland::Envelope::*result);

  /// The calibration hash lookups are keyed under.
  std::string calibration_hash();

  int fd_ = -1;
  std::string tenant_;
  std::int64_t next_id_ = 1;
  std::string calibration_;  ///< guarded by mu_
  std::mutex mu_;
};

}  // namespace karma::api
