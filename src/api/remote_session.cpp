#include "src/api/remote_session.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "src/api/plan_io.h"
#include "src/api/request_io.h"
#include "src/cache/request_key.h"

namespace karma::api {

namespace {

using util::json::Writer;

PlanError unavailable(std::string message) {
  PlanError e;
  e.code = PlanErrorCode::kUnavailable;
  e.message = std::move(message);
  return e;
}

}  // namespace

Expected<RemoteSession, PlanError> RemoteSession::connect(
    const std::string& socket_path, std::string tenant) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof addr.sun_path)
    return unavailable("socket path empty or too long: '" + socket_path +
                       "'");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return unavailable("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return unavailable("cannot connect to karma-pland at '" + socket_path +
                       "': " + std::strerror(errno));
  }
  return RemoteSession(fd, std::move(tenant));
}

RemoteSession::RemoteSession(int fd, std::string tenant)
    : fd_(fd), tenant_(std::move(tenant)) {}

RemoteSession::RemoteSession(RemoteSession&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  fd_ = std::exchange(other.fd_, -1);
  tenant_ = std::move(other.tenant_);
  next_id_ = other.next_id_;
  calibration_ = std::move(other.calibration_);
}

RemoteSession& RemoteSession::operator=(RemoteSession&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mu_, other.mu_);
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    tenant_ = std::move(other.tenant_);
    next_id_ = other.next_id_;
    calibration_ = std::move(other.calibration_);
  }
  return *this;
}

RemoteSession::~RemoteSession() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<std::string, PlanError> RemoteSession::call(
    std::string_view type, const pland::EnvelopeMembers& members,
    pland::Member pland::Envelope::*result) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t id = next_id_++;
  const std::string failed =
      "karma-pland '" + std::string(type) + "' request failed";
  if (fd_ < 0) return unavailable(failed);
  // A daemon past its connection cap answers id 0 with kOverloaded and
  // closes, perhaps before this frame is sent: a failed send still reads
  // that answer when one is waiting.
  if (!pland::write_frame(fd_, pland::write_envelope(type, id, members))) {
    pollfd ready{fd_, POLLIN, 0};
    if (::poll(&ready, 1, 0) != 1) return unavailable(failed);
  }
  std::string payload;
  for (;;) {
    if (pland::read_frame(fd_, &payload) != pland::ReadStatus::kOk)
      return unavailable(failed + ": connection lost");
    try {
      const pland::Envelope env = pland::read_envelope(payload);
      // Id 0 answers no request (ids start at 1): it is the daemon
      // refusing this connection, and it settles the call. Any other id
      // is a stale pipelined response: not ours.
      const bool refused = env.id == 0 && !env.ok.boolean();
      if (env.id != id && !refused) continue;
      if (!env.ok.boolean()) return error_from_json(env.error.value());
      const pland::Member& member = env.*result;
      const std::string_view bytes = member.value();
      if (!env.calibration.absent())
        calibration_ = env.calibration.string();
      if (bytes.front() == '"') return member.string();
      if (member.is_null()) return std::string();
      return std::string(bytes);
    } catch (const std::exception& ex) {
      return unavailable("malformed '" + std::string(type) +
                         "' response from karma-pland: " + ex.what());
    }
  }
}

std::string RemoteSession::calibration_hash() {
  std::lock_guard<std::mutex> lock(mu_);
  return calibration_;
}

Expected<std::string, PlanError> RemoteSession::plan_raw(
    const PlanRequest& request) {
  // Key-first: a hit costs a 32-hex-digit key, never the model. A plan
  // artifact is never empty, so "" is the daemon's plan:null. The hash is
  // re-read per attempt: call() adopts the one each lookup answers with.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::string calibration = calibration_hash();
    const std::string key = cache::request_key(request, calibration).hex();
    auto hit = call(
        "lookup",
        [&](Writer& w) {
          w.key("tenant"); w.value(tenant_);
          w.key("key"); w.value(key);
          w.key("calibration"); w.value(calibration);
          w.key("probe"); w.value(request.probe_feasible_batch);
        },
        &pland::Envelope::plan);
    if (!hit || !hit.value().empty()) return hit;
    if (calibration_hash() == calibration) break;  // a miss: send the request
  }
  // The span IS the leader's Plan::to_json() bytes — byte-identical for
  // every client fleet-wide.
  return call(
      "plan",
      [&](Writer& w) {
        w.key("tenant"); w.value(tenant_);
        w.key("request"); w.raw(request_to_json(request));
      },
      &pland::Envelope::plan);
}

Expected<Plan, PlanError> RemoteSession::plan(const PlanRequest& request) {
  auto raw = plan_raw(request);
  if (!raw) return std::move(raw).error();
  return plan_from_json(raw.value());
}

Expected<std::string, PlanError> RemoteSession::stats_json() {
  return call("stats", nullptr, &pland::Envelope::stats);
}

Expected<std::string, PlanError> RemoteSession::metrics_json() {
  return call("metrics", nullptr, &pland::Envelope::metrics);
}

Expected<std::string, PlanError> RemoteSession::calibrate(
    const std::string& table_json) {
  return call(
      "calibrate",
      [&](Writer& w) {
        w.key("table");
        if (table_json.empty()) {
          w.null();  // null table clears back to the analytic model
        } else {
          w.raw(table_json);
        }
      },
      &pland::Envelope::calibration);
}

bool RemoteSession::ping() {
  const auto type = call("ping", nullptr, &pland::Envelope::type);
  return type && type.value() == "pong";
}

bool RemoteSession::shutdown_server() {
  const auto type = call("shutdown", nullptr, &pland::Envelope::type);
  return type && type.value() == "shutdown";
}

}  // namespace karma::api
