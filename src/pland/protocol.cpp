#include "src/pland/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

namespace karma::pland {

namespace {

using util::json::Value;

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

namespace {

/// Maps spans parsed from a hollowed copy back onto the original payload:
/// offsets at or past the end of the "null" stand-in move by the bytes it
/// replaced (`replaced`, the lazy member's size), so the stand-in itself
/// spans the lazy member's real bytes.
void unhollow_spans(Value& v, std::size_t null_end, std::size_t replaced) {
  if (v.begin >= null_end) v.begin = v.begin - 4 + replaced;
  if (v.end >= null_end) v.end = v.end - 4 + replaced;
  for (Value& e : v.array) unhollow_spans(e, null_end, replaced);
  for (auto& [key, member] : v.object)
    unhollow_spans(member, null_end, replaced);
}

}  // namespace

Envelope read_envelope(std::string_view payload,
                       std::string_view lazy_member) {
  Envelope env;
  // A plan frame's bytes are dominated by the embedded request (a model
  // description runs tens of KB). Scan its span out first and parse the
  // envelope with the member hollowed to null, so the caller pays for the
  // bytes it digests instead of a DOM of the model. When the scan demurs,
  // the full parse recovers the span.
  if (!lazy_member.empty())
    env.lazy = util::json::scan_member(payload, lazy_member);
  if (!env.lazy.empty()) {
    const auto off = static_cast<std::size_t>(env.lazy.data() - payload.data());
    std::string hollowed;
    hollowed.reserve(payload.size() - env.lazy.size() + 4);
    hollowed.append(payload.substr(0, off));
    hollowed.append("null");
    hollowed.append(payload.substr(off + env.lazy.size()));
    env.root = util::json::parse(hollowed);
    unhollow_spans(env.root, off + 4, env.lazy.size());
  } else {
    env.root = util::json::parse(payload);
    const std::string key(lazy_member);
    if (!key.empty() && env.root.has(key))
      env.lazy = env.root.at(key).span(payload);
  }
  if (env.root.at("v").as_int() != kProtocolVersion)
    throw std::runtime_error("unsupported protocol version");
  env.id = env.root.at("id").as_int();
  return env;
}

}  // namespace karma::pland
