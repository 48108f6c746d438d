// The karma-pland wire codec (src/pland/protocol).
//
// The envelope writer and reader: exact header bytes, the reader's
// members as spans of the payload (every one validated but the request,
// which is only delimited), and the checks every frame must pass.
//
// read_frame fuzz: the frame decoder is the first code every byte a
// client sends reaches, so each way a frame can be cut short or lie about
// its length is driven through a socketpair with fixed seeds (a failure
// reproduces, it does not flake):
//   - truncated length prefixes (0-3 bytes, then close);
//   - lengths over kMaxFrameBytes;
//   - payloads shorter than announced, then close;
//   - a zero-length frame;
//   - valid frames delivered in 1-byte (and random-size) fragments, which
//     must come back whole and byte-identical.
//
// Frame deadlines, on a socketpair whose timeouts are the deadline (as
// the daemon's sockets are): idling before a frame is no timeout, a frame
// that stalls or trickles is cut off, and a response nobody reads fails.
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/pland/protocol.h"

namespace karma::pland {
namespace {

TEST(Envelope, WriterEmitsTheHeaderThenTheMembers) {
  EXPECT_EQ(write_envelope("ping", 3), R"({"v":1,"type":"ping","id":3})");
  EXPECT_EQ(write_envelope("pong", -2,
                           [](util::json::Writer& w) {
                             w.key("ok"); w.value(true);
                             w.key("plan"); w.raw(R"({"a":[1]})");
                           }),
            R"({"v":1,"type":"pong","id":-2,"ok":true,"plan":{"a":[1]}})");
}

TEST(Envelope, MembersAreSpansOfThePayload) {
  const std::string payload =
      R"({"v":1,"type":"plan","id":7,"request":{"m":[1,2,{"k":"}"}]},)"
      R"("table":{"x":[3]},"tenant":"t"})";
  const Envelope env = read_envelope(payload);
  EXPECT_EQ(env.id, 7);
  EXPECT_EQ(env.type.string(), "plan");
  EXPECT_EQ(env.request.bytes, R"({"m":[1,2,{"k":"}"}]})");
  // Views into the payload, not copies.
  EXPECT_EQ(env.request.bytes.data(), payload.data() + payload.find("{\"m\""));
  EXPECT_EQ(env.table.bytes, R"({"x":[3]})");
  EXPECT_EQ(util::json::scan_member(env.table.bytes, "x"), "[3]");
  EXPECT_EQ(env.tenant.bytes, R"("t")");
  EXPECT_EQ(env.tenant.string(), "t");
  EXPECT_TRUE(env.plan.absent());

  // Members shorter than "null" are spans too.
  const std::string short_member =
      R"({"v":1,"type":"plan","id":8,"request":5,"tenant":"u"})";
  const Envelope s = read_envelope(short_member);
  EXPECT_EQ(s.request.bytes, "5");
  EXPECT_EQ(s.tenant.bytes, R"("u")");
}

TEST(Envelope, NamesAreUnescapedAndOnlyTheRequestIsLeftUnvalidated) {
  // "request" is "request" after unescaping.
  const std::string escaped =
      "{\"v\":1,\"type\":\"plan\",\"id\":9,\"req\\u0075est\":{\"a\":1}}";
  const Envelope env = read_envelope(escaped);
  EXPECT_EQ(env.request.bytes, R"({"a":1})");
  util::json::Reader request(env.request.bytes);
  util::json::Members members(request);
  EXPECT_EQ(members.at("a").int64(), 1);
  // Absent member: empty bytes, not an error.
  EXPECT_TRUE(read_envelope(R"({"v":1,"type":"ping","id":1})").request.absent());
  // Every other member is validated while it is skipped.
  const std::string plan = R"({"v":1,"type":"plan","id":2,"plan":{"b":2}})";
  EXPECT_EQ(read_envelope(plan).plan.bytes, R"({"b":2})");
  EXPECT_THROW(read_envelope(R"({"v":1,"type":"plan","id":2,"plan":[}})"),
               std::runtime_error);
  // A request's bytes are only delimited: the plan worker's reader
  // validates them and answers a bad one as the plan's own error.
  EXPECT_EQ(read_envelope(R"({"v":1,"type":"plan","id":3,"request":[}})")
                .request.bytes,
            "[}");
  const std::string bomb = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_EQ(read_envelope(R"({"v":1,"type":"plan","id":4,"request":)" + bomb +
                          "}")
                .request.bytes,
            bomb);
  // A duplicate keeps its first value.
  EXPECT_EQ(read_envelope(R"({"v":1,"id":5,"plan":1,"plan":2})").plan.bytes,
            "1");
}

TEST(Envelope, MemberReadsCheckPresenceAndType) {
  const Envelope env = read_envelope(
      R"({"v":1,"type":"lookup","id":6,"key":5,"probe":"1","ok":true})");
  EXPECT_EQ(env.id, 6);
  EXPECT_TRUE(env.ok.boolean());
  const auto message = [](auto read) {
    try {
      read();
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { env.key.string(); }), "expected string");
  EXPECT_EQ(message([&] { env.probe.boolean(); }), "expected bool");
  EXPECT_EQ(message([&] { env.calibration.string(); }),
            "missing key 'calibration'");
  EXPECT_EQ(message([&] { env.error.value(); }), "missing key 'error'");
}

TEST(Envelope, ReaderRejectsBadVersionIdAndRoot) {
  for (const char* bad :
       {"[1]", R"({"v":2,"type":"ping","id":1})", R"({"type":"ping","id":1})",
        R"({"v":1,"type":"ping"})", R"({"v":1,"type":"ping","id":"1"})",
        R"({"v":1,"type":"ping","id":1.5})", "not json",
        R"({"v":1,"type":"ping","id":1} x)"}) {
    EXPECT_THROW(read_envelope(bad), std::runtime_error) << bad;
  }
}

/// Both ends of a unix stream socketpair, closed with the object.
struct Pair {
  Pair() {
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0)
      fds[0] = fds[1] = -1;
  }
  ~Pair() {
    close_writer();
    if (fds[0] >= 0) ::close(fds[0]);
  }
  void close_writer() {
    if (fds[1] >= 0) ::close(fds[1]);
    fds[1] = -1;
  }
  int reader() const { return fds[0]; }
  int writer() const { return fds[1]; }
  int fds[2];
};

std::string prefix(std::uint32_t len) {
  return {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
          static_cast<char>((len >> 16) & 0xff),
          static_cast<char>((len >> 24) & 0xff)};
}

std::string random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xff);
  return s;
}

/// Writes `bytes` on a thread in fragments of 1..max_chunk bytes (1 =
/// byte at a time), so the reader sees every possible split point. With
/// `hang_up`, the writer then shuts its side down, as a client that quits
/// mid-frame does.
std::thread write_fragmented(int fd, std::string bytes, std::size_t max_chunk,
                             std::uint64_t seed, bool hang_up = false) {
  return std::thread([fd, bytes = std::move(bytes), max_chunk, seed,
                      hang_up] {
    std::mt19937_64 rng(seed);
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(
          bytes.size() - off, 1 + rng() % max_chunk);
      const ssize_t w = ::write(fd, bytes.data() + off, n);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    if (hang_up) ::shutdown(fd, SHUT_WR);
  });
}

TEST(FrameFuzz, TruncatedPrefixesAreEofOrError) {
  std::mt19937_64 rng(0xF4A3E001ULL);
  for (int round = 0; round < 64; ++round) {
    for (std::size_t cut = 0; cut < 4; ++cut) {
      Pair p;
      ASSERT_GE(p.reader(), 0);
      const std::string bytes = random_bytes(rng, cut);
      ASSERT_EQ(::write(p.writer(), bytes.data(), cut),
                static_cast<ssize_t>(cut));
      p.close_writer();
      std::string payload;
      EXPECT_EQ(read_frame(p.reader(), &payload),
                cut == 0 ? ReadStatus::kEof : ReadStatus::kError)
          << "prefix cut after " << cut << " bytes";
    }
  }
}

TEST(FrameFuzz, LengthsOverTheCapAreTooLarge) {
  std::mt19937_64 rng(0xF4A3E002ULL);
  for (int round = 0; round < 256; ++round) {
    // The smallest and largest oversize lengths, then random ones.
    std::uint32_t len = kMaxFrameBytes + 1 +
                        static_cast<std::uint32_t>(
                            rng() % (UINT32_MAX - kMaxFrameBytes));
    if (round == 0) len = kMaxFrameBytes + 1;
    if (round == 1) len = UINT32_MAX;
    Pair p;
    ASSERT_GE(p.reader(), 0);
    const std::string bytes = prefix(len) + random_bytes(rng, rng() % 64);
    ASSERT_EQ(::write(p.writer(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    std::string payload;
    EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kTooLarge)
        << "length " << len;
  }
}

TEST(FrameFuzz, ShortPayloadsThenCloseAreErrors) {
  std::mt19937_64 rng(0xF4A3E003ULL);
  for (int round = 0; round < 128; ++round) {
    // Mostly small frames; every eighth announces the cap itself, the
    // shape a hostile client uses to make the reader allocate.
    const std::uint32_t len =
        round % 8 == 0 ? kMaxFrameBytes
                       : 1 + static_cast<std::uint32_t>(rng() % 200000);
    const std::size_t sent = rng() % std::min<std::uint32_t>(len, 150000);
    Pair p;
    ASSERT_GE(p.reader(), 0);
    std::thread writer =
        write_fragmented(p.writer(), prefix(len) + random_bytes(rng, sent),
                         4096, rng(), /*hang_up=*/true);
    std::string payload;
    EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kError)
        << "announced " << len << ", sent " << sent;
    writer.join();
  }
}

TEST(FrameFuzz, ZeroLengthFrameIsAnEmptyPayload) {
  Pair p;
  ASSERT_GE(p.reader(), 0);
  ASSERT_TRUE(write_frame(p.writer(), ""));
  ASSERT_TRUE(write_frame(p.writer(), "x"));
  std::string payload = "stale";
  EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kOk);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kOk);
  EXPECT_EQ(payload, "x");
  p.close_writer();
  EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kEof);
}

TEST(FrameFuzz, ByteAtATimeFramesComeBackIdentical) {
  std::mt19937_64 rng(0xF4A3E004ULL);
  for (int round = 0; round < 32; ++round) {
    const std::string frame = random_bytes(rng, rng() % 4096);
    Pair p;
    ASSERT_GE(p.reader(), 0);
    std::thread writer =
        write_fragmented(p.writer(), prefix(static_cast<std::uint32_t>(
                                         frame.size())) + frame,
                         /*max_chunk=*/1, rng());
    std::string payload;
    EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kOk);
    writer.join();
    EXPECT_EQ(payload, frame);
  }
}

TEST(FrameFuzz, LargeFragmentedFramesInOneStreamComeBackIdentical) {
  // Frames larger than any one read, back to back on one stream and read
  // into one reused buffer: a big frame then a small one must not leave
  // the big one's tail behind.
  std::mt19937_64 rng(0xF4A3E005ULL);
  std::vector<std::string> frames;
  std::string stream;
  for (const std::size_t size :
       {std::size_t{3 << 20}, std::size_t{17}, std::size_t{700001},
        std::size_t{0}, std::size_t{65536}, std::size_t{65537}}) {
    frames.push_back(random_bytes(rng, size));
    stream += prefix(static_cast<std::uint32_t>(size)) + frames.back();
  }
  Pair p;
  ASSERT_GE(p.reader(), 0);
  std::thread writer =
      write_fragmented(p.writer(), std::move(stream), 8192, rng());
  std::string payload;
  for (const std::string& frame : frames) {
    ASSERT_EQ(read_frame(p.reader(), &payload), ReadStatus::kOk);
    EXPECT_EQ(payload, frame) << "frame of " << frame.size() << " bytes";
  }
  writer.join();
  p.close_writer();
  EXPECT_EQ(read_frame(p.reader(), &payload), ReadStatus::kEof);
}

constexpr std::chrono::milliseconds kDeadline{200};
/// The least a timed-out call has waited: the kernel counts socket
/// timeouts in scheduler ticks, so one can end a tick early.
constexpr std::chrono::milliseconds kWaited = kDeadline - kDeadline / 10;

/// Sets kDeadline as `fd`'s receive and send timeouts.
void set_timeouts(int fd) {
  const timeval t{0, kDeadline.count() * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &t, sizeof t);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &t, sizeof t);
}

TEST(FrameDeadline, IdlingBeforeAFrameIsNoTimeout) {
  Pair p;
  ASSERT_GE(p.reader(), 0);
  set_timeouts(p.reader());
  std::thread writer([&p] {
    std::this_thread::sleep_for(3 * kDeadline);
    write_frame(p.writer(), "late");
  });
  std::string payload;
  EXPECT_EQ(read_frame(p.reader(), &payload, kDeadline), ReadStatus::kOk);
  EXPECT_EQ(payload, "late");
  writer.join();
}

TEST(FrameDeadline, AStalledFrameTimesOut) {
  Pair p;
  ASSERT_GE(p.reader(), 0);
  set_timeouts(p.reader());
  const std::string half = prefix(100) + "{\"v\"";
  ASSERT_EQ(::write(p.writer(), half.data(), half.size()),
            static_cast<ssize_t>(half.size()));
  const auto t0 = std::chrono::steady_clock::now();
  std::string payload;
  EXPECT_EQ(read_frame(p.reader(), &payload, kDeadline), ReadStatus::kError);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kWaited);
}

TEST(FrameDeadline, ATricklingFrameIsCutOffWithinTwiceTheDeadline) {
  // One byte every quarter deadline: no read ever times out by itself.
  Pair p;
  ASSERT_GE(p.reader(), 0);
  set_timeouts(p.reader());
  std::atomic<bool> done{false};
  std::thread writer([&] {
    const std::string frame = prefix(1000) + std::string(1000, ' ');
    for (const char byte : frame) {
      if (done || ::send(p.writer(), &byte, 1, MSG_NOSIGNAL) != 1) break;
      std::this_thread::sleep_for(kDeadline / 4);
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  std::string payload;
  EXPECT_EQ(read_frame(p.reader(), &payload, kDeadline), ReadStatus::kError);
  const auto took = std::chrono::steady_clock::now() - t0;
  done = true;
  writer.join();
  EXPECT_GE(took, kWaited);
  EXPECT_LT(took, 2 * kDeadline + kDeadline / 2);
}

TEST(FrameDeadline, AResponseNobodyReadsFails) {
  Pair p;
  ASSERT_GE(p.reader(), 0);
  set_timeouts(p.writer());
  const std::string big(4 << 20, 'x');  // far beyond the socket buffer
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(write_frame(p.writer(), big, kDeadline));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kWaited);
}

}  // namespace
}  // namespace karma::pland
