#include "src/pland/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace karma::pland {

namespace {

/// The first read of a frame's payload, and the least any later read
/// grows it by. Each read at most doubles what has already arrived, so a
/// frame's buffer never outgrows twice its received bytes plus this.
constexpr std::size_t kFrameReadStep = 64 * 1024;

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    // MSG_NOSIGNAL: a peer that hung up mid-response must surface as an
    // EPIPE return, never a process-killing SIGPIPE — one disconnecting
    // client cannot be allowed to take down the multi-tenant daemon (or a
    // client library's host process).
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads exactly `size` bytes. Returns bytes read (== size on success; 0 =
/// clean EOF before the first byte; anything else = truncated/error).
std::size_t read_all(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return got;
    }
    if (n == 0) return got;  // peer closed
    got += static_cast<std::size_t>(n);
  }
  return got;
}

}  // namespace

bool write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  const auto len = static_cast<std::uint32_t>(payload.size());
  // Little-endian by construction, independent of host order.
  const char prefix[4] = {
      static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
      static_cast<char>((len >> 16) & 0xff),
      static_cast<char>((len >> 24) & 0xff)};
  return write_all(fd, prefix, 4) &&
         write_all(fd, payload.data(), payload.size());
}

ReadStatus read_frame(int fd, std::string* payload) {
  unsigned char prefix[4];
  const std::size_t got =
      read_all(fd, reinterpret_cast<char*>(prefix), sizeof prefix);
  if (got == 0) return ReadStatus::kEof;
  if (got != sizeof prefix) return ReadStatus::kError;
  const std::uint32_t len = static_cast<std::uint32_t>(prefix[0]) |
                            (static_cast<std::uint32_t>(prefix[1]) << 8) |
                            (static_cast<std::uint32_t>(prefix[2]) << 16) |
                            (static_cast<std::uint32_t>(prefix[3]) << 24);
  if (len > kMaxFrameBytes) return ReadStatus::kTooLarge;
  // Grown as bytes arrive, never to the announced length up front: four
  // bytes from a client must not buy a zero-filled 64 MiB buffer.
  payload->clear();
  while (payload->size() < len) {
    const std::size_t have = payload->size();
    const std::size_t step =
        std::min<std::size_t>(len - have, std::max(have, kFrameReadStep));
    payload->resize(have + step);
    if (read_all(fd, payload->data() + have, step) != step)
      return ReadStatus::kError;
  }
  return ReadStatus::kOk;
}

std::string write_envelope(std::string_view type, std::int64_t id,
                           const EnvelopeMembers& members) {
  util::json::Writer w;
  w.begin_object();
  w.key("v"); w.value(kProtocolVersion);
  w.key("type"); w.value(type);
  w.key("id"); w.value(id);
  if (members) members(w);
  w.end_object();
  return w.take();
}

std::string_view Member::value() const {
  if (absent())
    throw std::runtime_error("missing key '" + std::string(name) + "'");
  return bytes;
}

std::string Member::string() const {
  return util::json::Reader(value()).string();
}

bool Member::boolean() const { return util::json::Reader(value()).boolean(); }

Envelope read_envelope(std::string_view payload) {
  Envelope env;
  Member version{"v"}, id{"id"};
  Member* const known[] = {&version,         &id,        &env.type,
                           &env.ok,          &env.tenant, &env.key,
                           &env.calibration, &env.probe, &env.request,
                           &env.plan,        &env.error, &env.table,
                           &env.stats,       &env.metrics};
  util::json::Reader r(payload);
  if (r.peek() != '{') {
    r.skip();  // a non-object has no members
  } else if (r.begin_object()) {
    std::string buffer;
    do {
      const std::string_view name = r.key(buffer);
      Member* member = nullptr;
      for (Member* m : known)
        if (name == m->name) member = m;
      const std::string_view bytes =
          member == &env.request ? r.delimit() : r.skip();
      if (member != nullptr && member->absent()) member->bytes = bytes;
    } while (r.more('}'));
  }
  r.finish();
  if (util::json::Reader(version.value()).int64() != kProtocolVersion)
    throw std::runtime_error("unsupported protocol version");
  env.id = util::json::Reader(id.value()).int64();
  return env;
}

}  // namespace karma::pland
