// karma-pland: the cross-process planning daemon (DESIGN.md §12).
//
// Three layers of proof:
//   - DAEMON PROTOCOL: RemoteSession against an in-process Daemon —
//     plans byte-identical to the engine's own, hit-path accounting,
//     admission sheds with retry_after, stats, graceful shutdown; the
//     exact envelope bytes both ways (a fake listener records the
//     client's); each hostile frame class answered and survived, and
//     memory that follows the bytes a client sends, not the lengths it
//     announces.
//   - FLEET SINGLE-FLIGHT: two Engines sharing one cache dir run ONE
//     search between them (claim files; flock conflicts across fds even
//     in one process), and a SIGKILLed claim holder releases followers
//     (kernel drops the flock).
//   - MULTI-PROCESS STORM: fork+exec N karma-planctl clients at one
//     daemon — exactly one search fleet-wide, byte-identical artifacts
//     in every client's output file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/api/engine.h"
#include "src/api/remote_session.h"
#include "src/api/request_io.h"
#include "src/cache/disk_store.h"
#include "src/cache/request_key.h"
#include "src/core/distributed.h"
#include "src/graph/model_zoo.h"
#include "src/pland/daemon.h"
#include "src/pland/protocol.h"
#include "src/util/json.h"

namespace karma {
namespace {

namespace fs = std::filesystem;

/// Tests must not inherit a developer's shared cache.
class KillCacheEnv : public ::testing::Environment {
 public:
  void SetUp() override { unsetenv("KARMA_CACHE_DIR"); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new KillCacheEnv);

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("karma-pland-" + tag + "-" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

api::PlanRequest resnet_request(std::int64_t batch = 512,
                                int anneal = 30) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal;
  request.probe_feasible_batch = false;
  return request;
}

/// A started daemon on a fresh socket + cache dir, torn down with the
/// fixture.
struct DaemonFixture {
  explicit DaemonFixture(const std::string& tag,
                         pland::DaemonOptions options = {})
      : dir(tag) {
    options.socket_path = dir.path + "/pland.sock";
    if (options.engine.cache.cache_dir.empty())
      options.engine.cache.cache_dir = dir.path + "/cache";
    daemon = std::make_unique<pland::Daemon>(std::move(options));
  }
  TempDir dir;
  std::unique_ptr<pland::Daemon> daemon;
};

// ---------------------------------------------------------------------------
// Daemon protocol via RemoteSession
// ---------------------------------------------------------------------------

TEST(Daemon, RemotePlanIsByteIdenticalToTheEnginesOwn) {
  DaemonFixture fx("bytes");
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "tenant-a");
  ASSERT_TRUE(session.has_value()) << session.error().message;

  const api::PlanRequest request = resnet_request();
  auto remote = session->plan_raw(request);
  ASSERT_TRUE(remote.has_value()) << remote.error().describe();
  // The wire bytes ARE the engine artifact (cache hit path, same engine).
  const auto local = fx.daemon->engine()->plan(request);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(remote.value(), local.value().to_json());
  // And the parsed form round-trips.
  auto parsed = session->plan(request);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed.value().to_json(), local.value().to_json());
}

TEST(Daemon, WarmHitsAreServedOnTheHitPathAndCounted) {
  DaemonFixture fx("hits");
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "hot");
  ASSERT_TRUE(session.has_value());

  const api::PlanRequest request = resnet_request();
  ASSERT_TRUE(session->plan_raw(request).has_value());  // cold: search
  ASSERT_TRUE(session->plan_raw(request).has_value());  // warm: hit path
  ASSERT_TRUE(session->plan_raw(request).has_value());  // warm again

  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.engine.searches, 1u);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, "hot");
  EXPECT_EQ(stats.tenants[0].hits, 2u);
  EXPECT_EQ(stats.tenants[0].admitted, 1u);
  EXPECT_EQ(stats.tenants[0].completed, 1u);
  EXPECT_EQ(stats.tenants[0].shed, 0u);
}

TEST(Daemon, AdmissionControlShedsWithRetryAfter) {
  pland::DaemonOptions options;
  options.max_queue_per_tenant = 0;  // every miss sheds immediately
  options.retry_after = 1.5;
  DaemonFixture fx("shed", std::move(options));
  ASSERT_TRUE(fx.daemon->start());
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "flood");
  ASSERT_TRUE(session.has_value());

  auto outcome = session->plan(resnet_request());
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error().code, api::PlanErrorCode::kOverloaded);
  EXPECT_DOUBLE_EQ(outcome.error().retry_after, 1.5);
  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.engine.searches, 0u);  // shed before any search
}

TEST(Daemon, PingStatsAndRemoteShutdown) {
  DaemonFixture fx("ctl");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path());
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(session->ping());
  auto stats = session->stats_json();
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats.value().find("\"tenants\""), std::string::npos);

  EXPECT_TRUE(session->shutdown_server());
  fx.daemon->wait();  // the shutdown envelope resolves the wait
  EXPECT_FALSE(fx.daemon->running());
  // The socket is gone: new connections fail as kUnavailable.
  auto dead = api::RemoteSession::connect(fx.daemon->socket_path());
  ASSERT_FALSE(dead.has_value());
  EXPECT_EQ(dead.error().code, api::PlanErrorCode::kUnavailable);
}

TEST(Daemon, ShortLivedConnectionsAreReapedAndServiceContinues) {
  // Regression: reader threads must end as clients hang up, not
  // accumulate until shutdown. Churn through many short-lived
  // connections, then prove the daemon still serves and tracks only the
  // one live connection.
  DaemonFixture fx("churn");
  ASSERT_TRUE(fx.daemon->start());
  constexpr int kChurn = 24;
  for (int i = 0; i < kChurn; ++i) {
    auto session =
        api::RemoteSession::connect(fx.daemon->socket_path(), "churn");
    ASSERT_TRUE(session.has_value()) << i;
    EXPECT_TRUE(session->ping()) << i;
  }  // ~RemoteSession closes the socket each round
  auto session =
      api::RemoteSession::connect(fx.daemon->socket_path(), "churn");
  ASSERT_TRUE(session.has_value());
  // Each reader leaves the live set as its client hangs up.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_LE(fx.daemon->open_connections(), 1u);
  EXPECT_TRUE(session->ping());
  EXPECT_EQ(fx.daemon->stats().connections,
            static_cast<std::uint64_t>(kChurn) + 1);
}

TEST(Daemon, SecondDaemonRefusesALiveSocket) {
  DaemonFixture fx("live");
  ASSERT_TRUE(fx.daemon->start());
  pland::DaemonOptions second;
  second.socket_path = fx.daemon->socket_path();
  second.engine.cache.cache_dir = fx.dir.path + "/cache2";
  pland::Daemon usurper(std::move(second));
  EXPECT_FALSE(usurper.start());
  EXPECT_TRUE(fx.daemon->running());
}

/// A raw client socket to `path`, for frames RemoteSession never sends.
int connect_raw(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// `len` as a frame's 4-byte little-endian length prefix.
std::string frame_prefix(std::uint32_t len) {
  return {static_cast<char>(len & 0xff), static_cast<char>((len >> 8) & 0xff),
          static_cast<char>((len >> 16) & 0xff),
          static_cast<char>((len >> 24) & 0xff)};
}

/// One request frame out, its response frame's exact bytes back.
std::string raw_round_trip(int fd, const std::string& frame) {
  std::string reply;
  if (!pland::write_frame(fd, frame) ||
      pland::read_frame(fd, &reply) != pland::ReadStatus::kOk)
    throw std::runtime_error("frame exchange failed");
  return reply;
}

/// One request frame out, its response frame back, parsed.
util::json::Value frame_round_trip(int fd, const std::string& frame) {
  return util::json::parse(raw_round_trip(fd, frame));
}

/// A fresh RemoteSession's ping: the daemon still accepts and serves.
bool fresh_ping(const std::string& socket_path) {
  auto session = api::RemoteSession::connect(socket_path);
  return session.has_value() && session->ping();
}

/// A lookup frame whose `key` and `probe` members are the given JSON.
std::string lookup_frame(int id, const std::string& key,
                         const std::string& probe = "false") {
  return R"({"v":1,"type":"lookup","id":)" + std::to_string(id) +
         R"(,"tenant":"t","key":)" + key + R"(,"calibration":"","probe":)" +
         probe + "}";
}

TEST(Daemon, HostileFramesGetTheirPinnedAnswerAndServiceContinues) {
  // One frame of each hostile class, with the answer the daemon gives it.
  // The envelope checks run in a fixed order — version, then id, then
  // type — so a frame rejected before its id is read is answered id 0.
  struct Case {
    std::string frame;
    std::string type;
    std::int64_t id;
    std::string code;
    std::string message;
  };
  const std::vector<Case> cases = {
      {"[1]", "error", 0, "invalid-request", "missing key 'v'"},
      {R"({"v":2,"type":"ping","id":3})", "error", 0, "invalid-request",
       "unsupported protocol version"},
      {R"({"v":1,"type":"ping"})", "error", 0, "invalid-request",
       "missing key 'id'"},
      {R"({"v":1,"type":"ping","id":"3"})", "error", 0, "invalid-request",
       "expected integer"},
      {R"({"v":1,"type":"bogus","id":4})", "error", 4, "invalid-request",
       "unknown request type 'bogus'"},
      // A request of the wrong type reaches a plan worker, whose request
      // reader rejects it as the plan's own error.
      {R"({"v":1,"type":"plan","id":5,"request":5})", "plan", 5,
       "parse-error", "request_from_json: missing key 'version'"},
      {R"({"v":1,"type":"plan","id":6})", "error", 6, "invalid-request",
       "plan frame without a request"},
      {R"({"v":1,"type":"ping","id":7,"x":[}})", "error", 0,
       "invalid-request", "bad number"},
      // The escaped key misses the byte scan; the full parse still finds
      // the request, so it is answered exactly like "request":5.
      {"{\"v\":1,\"type\":\"plan\",\"id\":8,\"req\\u0075est\":5}", "plan", 8,
       "parse-error", "request_from_json: missing key 'version'"},
      // Lookup keys are exactly 32 lowercase hex digits, and a lookup
      // names its calibration hash and probe flag.
      {lookup_frame(9, "\"" + std::string(31, 'a') + "\""), "error", 9,
       "invalid-request", "lookup key is not 32 lowercase hex digits"},
      {lookup_frame(10, "\"" + std::string(33, 'a') + "\""), "error", 10,
       "invalid-request", "lookup key is not 32 lowercase hex digits"},
      {lookup_frame(11, "\"" + std::string(31, 'a') + "A\""), "error", 11,
       "invalid-request", "lookup key is not 32 lowercase hex digits"},
      {lookup_frame(12, "\"" + std::string(31, 'a') + "g\""), "error", 12,
       "invalid-request", "lookup key is not 32 lowercase hex digits"},
      {lookup_frame(13, "5"), "error", 13, "invalid-request",
       "expected string"},
      {R"({"v":1,"type":"lookup","id":14,"key":")" + std::string(32, 'a') +
           R"(","probe":false})",
       "error", 14, "invalid-request", "missing key 'calibration'"},
      {lookup_frame(15, "\"" + std::string(32, 'a') + "\"", "1"), "error", 15,
       "invalid-request", "expected bool"},
  };
  DaemonFixture fx("hostile");
  ASSERT_TRUE(fx.daemon->start());
  std::uint64_t protocol_errors = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.frame);
    const int fd = connect_raw(fx.daemon->socket_path());
    ASSERT_GE(fd, 0);
    const util::json::Value reply = frame_round_trip(fd, c.frame);
    ::close(fd);
    EXPECT_EQ(reply.at("v").as_int(), 1);
    EXPECT_EQ(reply.at("type").as_string(), c.type);
    EXPECT_EQ(reply.at("id").as_int(), c.id);
    EXPECT_FALSE(reply.at("ok").as_bool());
    EXPECT_EQ(reply.at("error").at("code").as_string(), c.code);
    EXPECT_EQ(reply.at("error").at("message").as_string(), c.message);
    if (c.type == "error") ++protocol_errors;
    EXPECT_TRUE(fresh_ping(fx.daemon->socket_path()));
  }
  EXPECT_EQ(fx.daemon->stats().protocol_errors, protocol_errors);
  EXPECT_TRUE(fx.daemon->running());
}

TEST(Daemon, ResponseWireBytesArePinned) {
  DaemonFixture fx("wire");
  ASSERT_TRUE(fx.daemon->start());
  const int fd = connect_raw(fx.daemon->socket_path());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(raw_round_trip(fd, R"({"v":1,"type":"ping","id":5})"),
            R"({"v":1,"type":"pong","id":5,"ok":true})");

  // A plan response splices the engine's artifact verbatim.
  const api::PlanRequest request = resnet_request(256);
  const std::string plan_reply = raw_round_trip(
      fd, R"({"v":1,"type":"plan","id":7,"tenant":"t","request":)" +
              api::request_to_json(request) + "}");
  const auto local = fx.daemon->engine()->plan(request);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(plan_reply, R"({"v":1,"type":"plan","id":7,"ok":true,"plan":)" +
                            local.value().to_json() + "}");
  // "request" is "request" after unescaping: the byte scan misses it, the
  // full parse recovers its span, and the plan is the same artifact.
  EXPECT_EQ(raw_round_trip(fd, "{\"v\":1,\"type\":\"plan\",\"id\":8,"
                               "\"req\\u0075est\":" +
                                   api::request_to_json(request) + "}"),
            R"({"v":1,"type":"plan","id":8,"ok":true,"plan":)" +
                local.value().to_json() + "}");
  // A lookup hit splices the same artifact; a miss answers plan:null.
  const std::string key = cache::request_key(request).hex();
  EXPECT_EQ(
      raw_round_trip(fd, lookup_frame(9, '"' + key + '"')),
      R"({"v":1,"type":"lookup","id":9,"ok":true,"calibration":"","plan":)" +
          local.value().to_json() + "}");
  EXPECT_EQ(
      raw_round_trip(fd, lookup_frame(10, '"' + std::string(32, '0') + '"')),
      R"({"v":1,"type":"lookup","id":10,"ok":true,"calibration":"","plan":null})");

  EXPECT_EQ(
      raw_round_trip(fd, R"({"v":1,"type":"bogus","id":4})"),
      R"({"v":1,"type":"error","id":4,"ok":false,"error":{"code":"invalid-request","message":"unknown request type 'bogus'","model":"","device":"","violating_layer":-1,"violating_block":-1,"deficits":[],"nearest_feasible_batch":-1,"probe_candidates":0,"probe_cache_hits":0,"from_negative_cache":false,"retry_after":0,"partial":null}})");

  EXPECT_EQ(
      raw_round_trip(
          fd,
          R"({"v":1,"type":"calibrate","id":11,"table":{"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},"sample_count":0,"rejected_outliers":0}})"),
      R"({"v":1,"type":"calibrate","id":11,"ok":true,"calibration":"32eb4bb8f96e706e078ad8451cff977a","calibration_version":1})");
  EXPECT_EQ(fx.daemon->engine()->calibration_hash(),
            "32eb4bb8f96e706e078ad8451cff977a");
  EXPECT_EQ(
      raw_round_trip(fd, R"({"v":1,"type":"calibrate","id":12,"table":null})"),
      R"({"v":1,"type":"calibrate","id":12,"ok":true,"calibration":"","calibration_version":0})");

  // Stats and metrics documents vary; their envelopes do not.
  const std::string stats =
      raw_round_trip(fd, R"({"v":1,"type":"stats","id":13})");
  EXPECT_EQ(stats.rfind(R"({"v":1,"type":"stats","id":13,"ok":true,"stats":{)",
                        0),
            0u)
      << stats;
  const std::string metrics =
      raw_round_trip(fd, R"({"v":1,"type":"metrics","id":14})");
  EXPECT_EQ(metrics.rfind(
                R"({"v":1,"type":"metrics","id":14,"ok":true,"metrics":{)", 0),
            0u)
      << metrics;
  ::close(fd);
}

TEST(Daemon, AStaleCalibrationHashNeverServesAPreCalibrationPlan) {
  DaemonFixture fx("stale");
  ASSERT_TRUE(fx.daemon->start());
  auto a = api::RemoteSession::connect(fx.daemon->socket_path(), "a");
  auto b = api::RemoteSession::connect(fx.daemon->socket_path(), "b");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const api::PlanRequest request = resnet_request();
  const auto before = a->plan_raw(request);
  ASSERT_TRUE(before.has_value()) << before.error().describe();
  const auto hash = a->calibrate(
      R"({"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},"sample_count":0,"rejected_outliers":0})");
  ASSERT_TRUE(hash.has_value());
  ASSERT_FALSE(hash.value().empty());

  // B still keys under "": the daemon must not serve the old entry under
  // that key, but hand B the active hash, so B's request repairs.
  const auto after = b->plan_raw(request);
  ASSERT_TRUE(after.has_value()) << after.error().describe();
  EXPECT_FALSE(after.value() == before.value())
      << "a stale key was served the pre-calibration plan";
  EXPECT_EQ(fx.daemon->stats().engine.searches, 2u);
  // The artifact is the repair's: its fresh LRU entry still carries the
  // search's own counters (the wire artifact has no search_stats).
  const auto repaired = fx.daemon->engine()->try_cached(
      fx.daemon->engine()->key_for(request), false);
  ASSERT_TRUE(repaired.has_value());
  ASSERT_TRUE(repaired->has_value());
  EXPECT_TRUE(repaired->value().search_stats.warm_started);
  EXPECT_EQ(repaired->value().to_json(), after.value());

  // The old key under the old hash is still cached (a repair seed), yet a
  // lookup of it answers plan:null with the active hash.
  const int fd = connect_raw(fx.daemon->socket_path());
  ASSERT_GE(fd, 0);
  EXPECT_EQ(
      raw_round_trip(fd, lookup_frame(
                             3, '"' + cache::request_key(request).hex() + '"')),
      R"({"v":1,"type":"lookup","id":3,"ok":true,"calibration":")" +
          hash.value() + R"(","plan":null})");
  ::close(fd);
}

TEST(Daemon, LookupHitsSendTheEnginesOwnBytes) {
  // A hit's plan bytes are the entry's memoized serialization: they must
  // equal what the in-process engine serializes for the same request, and
  // the miss that cached it. Each request warms its entry through the
  // miss path, then a second plan_raw is a `lookup` hit.
  DaemonFixture fx("hitbytes");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path(), "t");
  ASSERT_TRUE(session.has_value());
  const auto& engine = fx.daemon->engine();
  std::uint64_t hits = 0;
  const auto expect_hit_bytes = [&](const api::PlanRequest& request) {
    const auto miss = session->plan_raw(request);
    ASSERT_TRUE(miss.has_value()) << miss.error().describe();
    const auto hit = session->plan_raw(request);
    ASSERT_TRUE(hit.has_value()) << hit.error().describe();
    const pland::DaemonStats stats = fx.daemon->stats();
    ASSERT_EQ(stats.tenants.size(), 1u);
    EXPECT_EQ(stats.tenants[0].hits, ++hits) << "not served by a lookup";
    const auto local = engine->plan(request);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(hit.value(), local->to_json());
    EXPECT_EQ(hit.value(), miss.value());
  };

  const api::PlanRequest single = resnet_request(256);
  {
    SCOPED_TRACE("single GPU");
    expect_hit_bytes(single);
  }
  api::PlanRequest parallel = resnet_request(256, 0);
  core::DistributedOptions data_parallel;
  data_parallel.num_gpus = 16;
  data_parallel.iterations = 2;
  parallel.distributed = data_parallel;
  {
    SCOPED_TRACE("data parallel");
    expect_hit_bytes(parallel);
  }
  // A calibration keys the request anew: a fresh entry, memoized anew.
  ASSERT_TRUE(session
                  ->calibrate(
                      R"({"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},"sample_count":0,"rejected_outliers":0})")
                  .has_value());
  {
    SCOPED_TRACE("after calibrate");
    expect_hit_bytes(single);
  }
  EXPECT_EQ(fx.daemon->stats().engine.searches, 3u);
}

TEST(Daemon, AMemoizedDiagnosisAnswersItsLookupWithItsErrorEnvelope) {
  DaemonFixture fx("diagbytes");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path(), "t");
  ASSERT_TRUE(session.has_value());
  api::PlanRequest request = resnet_request(256, 0);
  request.device = sim::test_device();  // 1 MiB: nothing fits
  const auto miss = session->plan_raw(request);
  ASSERT_FALSE(miss.has_value());
  EXPECT_FALSE(miss.error().from_negative_cache);

  // Served twice from the same entry, once by its first serialization.
  const auto cached =
      fx.daemon->engine()->try_cached(fx.daemon->engine()->key_for(request),
                                      false);
  ASSERT_TRUE(cached.has_value());
  ASSERT_FALSE(cached->has_value());
  const std::string key = fx.daemon->engine()->key_for(request).hex();
  const int fd = connect_raw(fx.daemon->socket_path());
  ASSERT_GE(fd, 0);
  for (int id = 1; id <= 2; ++id)
    EXPECT_EQ(raw_round_trip(fd, lookup_frame(id, '"' + key + '"')),
              R"({"v":1,"type":"lookup","id":)" + std::to_string(id) +
                  R"(,"ok":false,"error":)" +
                  api::error_to_json(cached->error()) + "}");
  ::close(fd);
  const auto hit = session->plan_raw(request);
  ASSERT_FALSE(hit.has_value());
  EXPECT_TRUE(hit.error().from_negative_cache);
  EXPECT_EQ(hit.error().code, miss.error().code);
  EXPECT_EQ(hit.error().message, miss.error().message);
  EXPECT_EQ(fx.daemon->stats().engine.searches, 1u);
}

TEST(RemoteSession, ARefusalPastTheConnectionCapIsOverloadedWithRetryAfter) {
  pland::DaemonOptions options;
  options.retry_after = 0.75;
  DaemonFixture fx("refused", std::move(options));
  ASSERT_TRUE(fx.daemon->start());
  const std::string path = fx.daemon->socket_path();
  std::vector<int> held;
  for (std::size_t i = 0; i < pland::kMaxConnections; ++i) {
    const int fd = connect_raw(path);
    ASSERT_GE(fd, 0);
    held.push_back(fd);
  }
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.daemon->open_connections() < pland::kMaxConnections &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ(fx.daemon->open_connections(), pland::kMaxConnections);

  // Asked at once, and asked after the daemon has refused and closed (so
  // the request itself cannot be sent): the refusal answers both.
  for (const auto wait : {std::chrono::milliseconds(0),
                          std::chrono::milliseconds(200)}) {
    auto session = api::RemoteSession::connect(path);
    ASSERT_TRUE(session.has_value());
    std::this_thread::sleep_for(wait);
    const auto stats = session->stats_json();
    ASSERT_FALSE(stats.has_value());
    EXPECT_EQ(stats.error().code, api::PlanErrorCode::kOverloaded)
        << stats.error().describe();
    EXPECT_DOUBLE_EQ(stats.error().retry_after, 0.75);
  }
  for (const int fd : held) ::close(fd);
}

TEST(RemoteSession, CalibrationHashIsSharedSafelyAcrossThreads) {
  // Two threads plan through one session while a third swaps the
  // calibration on it; every plan must arrive (run under TSan for the
  // hash's locking).
  DaemonFixture fx("threads");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path(), "t");
  ASSERT_TRUE(session.has_value());
  const api::PlanRequest request = resnet_request(256);
  ASSERT_TRUE(session->plan_raw(request).has_value());
  const std::string table =
      R"({"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},"sample_count":0,"rejected_outliers":0})";
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  auto planner = [&] {
    for (int i = 0; i < 20; ++i)
      if (!session->plan_raw(request).has_value()) failures++;
  };
  std::thread p1(planner), p2(planner);
  std::thread calibrator([&] {
    for (int i = 0; !done.load(); ++i) {
      if (!session->calibrate(i % 2 == 0 ? table : "").has_value())
        failures++;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  p1.join();
  p2.join();
  done = true;
  calibrator.join();
  EXPECT_EQ(failures.load(), 0);
  // Two calibrations, two plans cached: later swaps all hit.
  EXPECT_LE(fx.daemon->stats().engine.searches, 2u);
}

TEST(Daemon, StatsDocumentBytesArePinned) {
  // Every member distinct, so a dropped, reordered or swapped member shows.
  pland::DaemonStats s;
  s.connections = 1;
  s.requests = 2;
  s.shed = 3;
  s.protocol_errors = 4;
  s.engine.requests = 5;
  s.engine.searches = 6;
  s.engine.flights_joined = 7;
  s.engine.cancelled = 8;
  s.engine.deadlines = 9;
  s.cache.memory_hits = 10;
  s.cache.disk_hits = 11;
  s.cache.misses = 12;
  s.cache.insertions = 13;
  s.cache.evictions = 14;
  s.cache.disk_writes = 15;
  s.cache.corrupt_entries = 16;
  s.cache.resident_bytes = 17;
  s.cache.negative_hits = 18;
  s.cache.negative_insertions = 19;
  s.claims_won = 20;
  s.claims_lost = 21;
  s.calibration = "abc";
  s.calibration_version = 22;
  s.tenants.push_back({"t0", 23, 24, 25, 26, 27});
  s.tenants.push_back({"t1", 28, 29, 30, 31, 32});
  EXPECT_EQ(
      s.to_json(),
      R"({"connections":1,"requests":2,"shed":3,"protocol_errors":4,)"
      R"("engine":{"requests":5,"searches":6,"flights_joined":7,"cancelled":8,"deadlines":9},)"
      R"("cache":{"memory_hits":10,"disk_hits":11,"misses":12,"insertions":13,"evictions":14,)"
      R"("disk_writes":15,"corrupt_entries":16,"resident_bytes":17,"negative_hits":18,)"
      R"("negative_insertions":19},"claims_won":20,"claims_lost":21,)"
      R"("calibration":"abc","calibration_version":22,"tenants":[)"
      R"({"tenant":"t0","admitted":23,"completed":24,"shed":25,"hits":26,"queue_depth":27},)"
      R"({"tenant":"t1","admitted":28,"completed":29,"shed":30,"hits":31,"queue_depth":32}]})");
}

/// A listening socket no daemon serves: it records what RemoteSession
/// sends and answers with scripted frames.
struct FakeDaemon {
  explicit FakeDaemon(const std::string& tag) : dir(tag) {
    path = dir.path + "/fake.sock";
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd < 0 ||
        ::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(listen_fd, 4) != 0)
      throw std::runtime_error("fake daemon cannot listen");
  }
  ~FakeDaemon() { ::close(listen_fd); }

  /// Runs `verb` on a fresh session. The fake answers the i-th frame the
  /// client sends with the frames of `replies[i]` (each with "$ID"
  /// replaced by that frame's id), and hangs up at the first frame it has
  /// no replies for, or when the client does. Returns every frame the
  /// client sent.
  std::vector<std::string> converse(
      const std::function<void(api::RemoteSession&)>& verb,
      const std::vector<std::vector<std::string>>& replies) {
    auto session = api::RemoteSession::connect(path, "t");
    if (!session) throw std::runtime_error("cannot connect to fake daemon");
    // The session dies with the verb, so a client with nothing more to
    // send hangs up and ends the fake's read loop.
    std::thread client([&] {
      api::RemoteSession s = std::move(session).value();
      verb(s);
    });
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    std::vector<std::string> sent;
    std::string frame;
    while (fd >= 0 &&
           pland::read_frame(fd, &frame) == pland::ReadStatus::kOk) {
      sent.push_back(frame);
      if (sent.size() > replies.size() || replies[sent.size() - 1].empty())
        break;
      const std::string id =
          std::to_string(util::json::parse(frame).at("id").as_int());
      for (std::string reply : replies[sent.size() - 1]) {
        const auto at = reply.find("$ID");
        if (at != std::string::npos) reply.replace(at, 3, id);
        pland::write_frame(fd, reply);
      }
    }
    if (fd >= 0) ::close(fd);
    client.join();
    return sent;
  }

  /// converse() with `replies` for the first frame only; returns that
  /// frame.
  std::string exchange(const std::function<void(api::RemoteSession&)>& verb,
                       const std::vector<std::string>& replies = {}) {
    const std::vector<std::string> sent = converse(verb, {replies});
    return sent.empty() ? std::string() : sent.front();
  }

  TempDir dir;
  std::string path;
  int listen_fd = -1;
};

TEST(RemoteSession, RequestWireBytesArePinned) {
  FakeDaemon fake("client-wire");
  EXPECT_EQ(fake.exchange([](api::RemoteSession& s) { s.ping(); }),
            R"({"v":1,"type":"ping","id":1})");
  EXPECT_EQ(fake.exchange([](api::RemoteSession& s) { s.stats_json(); }),
            R"({"v":1,"type":"stats","id":1})");
  EXPECT_EQ(fake.exchange([](api::RemoteSession& s) { s.metrics_json(); }),
            R"({"v":1,"type":"metrics","id":1})");
  EXPECT_EQ(
      fake.exchange([](api::RemoteSession& s) { s.shutdown_server(); }),
      R"({"v":1,"type":"shutdown","id":1})");
  // plan_raw looks its key up first; only a miss under the same hash
  // sends the request itself, as the plan frame.
  const api::PlanRequest request = resnet_request(256);
  const std::string key = "ce4f7f245bda85a76729a449f9530d3f";
  ASSERT_EQ(cache::request_key(request).hex(), key);
  const std::string plan_frame = R"(,"tenant":"t","request":)" +
                                 api::request_to_json(request) + "}";
  const std::string miss =
      R"({"v":1,"type":"lookup","id":$ID,"ok":true,"calibration":"","plan":null})";
  EXPECT_EQ(
      fake.converse([&](api::RemoteSession& s) { s.plan_raw(request); },
                    {{miss}}),
      (std::vector<std::string>{
          R"({"v":1,"type":"lookup","id":1,"tenant":"t","key":")" + key +
              R"(","calibration":"","probe":false})",
          R"({"v":1,"type":"plan","id":2)" + plan_frame}));
  // plan:null under another hash: the client adopts it and looks up once
  // more, keyed under it, before it sends the request.
  const std::string hash = "32eb4bb8f96e706e078ad8451cff977a";
  const std::string stale =
      R"({"v":1,"type":"lookup","id":$ID,"ok":true,"calibration":")" +
      hash + R"(","plan":null})";
  EXPECT_EQ(
      fake.converse([&](api::RemoteSession& s) { s.plan_raw(request); },
                    {{stale}, {stale}}),
      (std::vector<std::string>{
          R"({"v":1,"type":"lookup","id":1,"tenant":"t","key":")" + key +
              R"(","calibration":"","probe":false})",
          R"({"v":1,"type":"lookup","id":2,"tenant":"t","key":")" +
              cache::request_key(request, hash).hex() + R"(","calibration":")" +
              hash + R"(","probe":false})",
          R"({"v":1,"type":"plan","id":3)" + plan_frame}));
  EXPECT_EQ(fake.exchange([](api::RemoteSession& s) { s.calibrate(""); }),
            R"({"v":1,"type":"calibrate","id":1,"table":null})");
  const std::string table =
      R"({"version":1,"factors":{"*":{"h2d":1.5,"d2h":1.5}},"sample_count":0,"rejected_outliers":0})";
  EXPECT_EQ(fake.exchange([&](api::RemoteSession& s) { s.calibrate(table); }),
            R"({"v":1,"type":"calibrate","id":1,"table":)" + table + "}");
}

TEST(RemoteSession, ResponsesAreMatchedByIdAndMalformedOnesAreUnavailable) {
  FakeDaemon fake("client-read");
  // A stale pipelined response is skipped; the one echoing the id counts.
  bool pong = false;
  fake.exchange([&](api::RemoteSession& s) { pong = s.ping(); },
                {R"({"v":1,"type":"pong","id":999,"ok":false})",
                 R"({"v":1,"type":"pong","id":$ID,"ok":true})"});
  EXPECT_TRUE(pong);

  // The daemon's own error comes back structurally intact.
  std::optional<api::Expected<std::string, api::PlanError>> stats;
  fake.exchange(
      [&](api::RemoteSession& s) { stats.emplace(s.stats_json()); },
      {R"({"v":1,"type":"stats","id":$ID,"ok":false,"error":{"code":"overloaded","message":"busy","model":"","device":"","violating_layer":-1,"violating_block":-1,"deficits":[],"nearest_feasible_batch":-1,"probe_candidates":0,"probe_cache_hits":0,"from_negative_cache":false,"retry_after":2.5,"partial":null}})"});
  ASSERT_TRUE(stats.has_value());
  ASSERT_FALSE(stats->has_value());
  EXPECT_EQ(stats->error().code, api::PlanErrorCode::kOverloaded);
  EXPECT_EQ(stats->error().message, "busy");
  EXPECT_DOUBLE_EQ(stats->error().retry_after, 2.5);

  // Malformed responses and hang-ups are kUnavailable, never a throw.
  const std::vector<std::vector<std::string>> broken = {
      {},                                          // hang-up, no answer
      {"not json"},                                // unparseable
      {R"({"v":1,"type":"plan","ok":true})"},      // no id
      {R"({"v":1,"type":"plan","id":$ID})"},       // no ok
      {R"({"v":1,"type":"plan","id":$ID,"ok":true})"},  // no plan
  };
  const api::PlanRequest request = resnet_request(256);
  for (const auto& replies : broken) {
    std::optional<api::Expected<std::string, api::PlanError>> plan;
    fake.exchange(
        [&](api::RemoteSession& s) { plan.emplace(s.plan_raw(request)); },
        replies);
    ASSERT_TRUE(plan.has_value());
    ASSERT_FALSE(plan->has_value()) << (replies.empty() ? "" : replies[0]);
    EXPECT_EQ(plan->error().code, api::PlanErrorCode::kUnavailable);
  }
}

/// This process's resident set, from /proc/self/status (VmRSS, in kB).
std::int64_t resident_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  return -1;
}

TEST(Daemon, AnnouncedFrameLengthsAllocateNothingUntilBytesArrive) {
  // Regression: read_frame sized its buffer to the announced length before
  // any payload byte arrived, so 4 bytes from a client bought a zero-filled
  // 64 MiB buffer. Memory must follow the bytes received instead.
  DaemonFixture fx("rss");
  ASSERT_TRUE(fx.daemon->start());
  ASSERT_TRUE(fresh_ping(fx.daemon->socket_path()));  // warm the daemon up
  const std::int64_t before_kb = resident_kb();
  ASSERT_GT(before_kb, 0);

  constexpr int kConnections = 8;
  const std::string prefix = frame_prefix(pland::kMaxFrameBytes - 1);
  std::vector<int> fds;
  for (int i = 0; i < kConnections; ++i) {
    const int fd = connect_raw(fx.daemon->socket_path());
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, prefix.data(), prefix.size()), 4);
    fds.push_back(fd);
  }
  // The readers take their prefixes as soon as they are scheduled; a ping
  // answered after them means the accept loop has served every one.
  ASSERT_TRUE(fresh_ping(fx.daemon->socket_path()));
  std::int64_t peak_kb = before_kb;
  for (int i = 0; i < 20; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    peak_kb = std::max(peak_kb, resident_kb());
  }
  for (const int fd : fds) ::close(fd);
  EXPECT_LT(peak_kb - before_kb, 32 * 1024)
      << "RSS grew from " << before_kb << " kB to " << peak_kb << " kB";
  EXPECT_TRUE(fresh_ping(fx.daemon->socket_path()));
}

TEST(Daemon, NestingBombPlanFrameIsAnErrorNotACrash) {
  // Regression: util::json::parse recursed without bound, so a plan frame
  // whose request was 100,000 '[' then 100,000 ']' (200 KB) overflowed a
  // plan worker's stack and killed the daemon.
  DaemonFixture fx("bomb");
  ASSERT_TRUE(fx.daemon->start());
  const int fd = connect_raw(fx.daemon->socket_path());
  ASSERT_GE(fd, 0);
  const std::string bomb =
      std::string(100000, '[') + std::string(100000, ']');
  const util::json::Value plan = frame_round_trip(
      fd, R"({"v":1,"type":"plan","id":7,"request":)" + bomb + "}");
  EXPECT_EQ(plan.at("type").as_string(), "plan");
  EXPECT_EQ(plan.at("id").as_int(), 7);
  EXPECT_FALSE(plan.at("ok").as_bool());
  EXPECT_EQ(plan.at("error").at("code").as_string(), "parse-error");
  // Same connection, still served.
  const util::json::Value pong =
      frame_round_trip(fd, R"({"v":1,"type":"ping","id":8})");
  EXPECT_EQ(pong.at("type").as_string(), "pong");
  EXPECT_EQ(pong.at("id").as_int(), 8);
  ::close(fd);
  EXPECT_TRUE(fx.daemon->running());
}

TEST(Daemon, AnnealWorkersAboveTheCapAreRefusedBeforeAnySearch) {
  // A plan frame must not size a plan worker's thread pool: the request
  // is the plan's own invalid-request error, and no search starts.
  DaemonFixture fx("workers");
  ASSERT_TRUE(fx.daemon->start());
  api::PlanRequest request = resnet_request(64, 0);
  request.planner.anneal_workers = 1000000;
  const int fd = connect_raw(fx.daemon->socket_path());
  ASSERT_GE(fd, 0);
  const util::json::Value plan = frame_round_trip(
      fd, R"({"v":1,"type":"plan","id":3,"tenant":"t","request":)" +
              api::request_to_json(request) + "}");
  ::close(fd);
  EXPECT_EQ(plan.at("type").as_string(), "plan");
  EXPECT_EQ(plan.at("id").as_int(), 3);
  EXPECT_FALSE(plan.at("ok").as_bool());
  EXPECT_EQ(plan.at("error").at("code").as_string(), "invalid-request");
  EXPECT_NE(plan.at("error").at("message").as_string().find(
                "planner.anneal_workers"),
            std::string::npos);
  EXPECT_TRUE(fresh_ping(fx.daemon->socket_path()));
  EXPECT_EQ(fx.daemon->stats().engine.searches, 0u);
  EXPECT_TRUE(fx.daemon->running());
}

TEST(Daemon, StopWithIdleWorkersNeverHangs) {
  // Regression: stop() must publish its stop flag under the queue mutex.
  // A plan worker caught between its wait predicate and its wait used to
  // miss both the flag and the notify, and stop() then hung joining it.
  // Idle workers park in exactly that wait, so cycle start/stop many
  // times; a lost wakeup shows up as a blown deadline, not a pass.
  constexpr int kCycles = 1000;
  TempDir dir("stop");
  struct Progress {
    std::atomic<int> cycles{0};
    std::atomic<bool> done{false};
  };
  auto progress = std::make_shared<Progress>();
  std::thread driver([path = dir.path, progress] {
    for (int i = 0; i < kCycles; ++i) {
      pland::DaemonOptions options;
      options.socket_path = path + "/pland.sock";
      options.engine.cache.cache_dir = path + "/cache";
      options.num_workers = 4;
      pland::Daemon daemon(std::move(options));
      if (!daemon.start()) break;
      daemon.stop();
      progress->cycles.fetch_add(1);
    }
    progress->done = true;
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!progress->done && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (!progress->done) {
    // A hung stop() can never be joined; report and end the process.
    std::fprintf(stderr, "stop() hung after %d of %d start/stop cycles\n",
                 progress->cycles.load(), kCycles);
    std::_Exit(1);
  }
  driver.join();
  EXPECT_EQ(progress->cycles.load(), kCycles);
}

// ---------------------------------------------------------------------------
// Bounds: the connection cap and the I/O deadline
// ---------------------------------------------------------------------------

/// Threads in this process, from /proc/self/status.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// Whether `fd` has bytes or its end to read within `limit`.
bool readable_within(int fd, std::chrono::milliseconds limit) {
  pollfd ready{fd, POLLIN, 0};
  return ::poll(&ready, 1, static_cast<int>(limit.count())) == 1;
}

/// Whether `fd` reads the end of its stream (EOF, or the reset a close with
/// unread bytes leaves) within `limit`, without blocking past it.
bool reads_eof_within(int fd, std::chrono::milliseconds limit) {
  if (!readable_within(fd, limit)) return false;
  char byte;
  const ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  return n == 0 || (n < 0 && errno == ECONNRESET);
}

/// Runs `call` on its own thread and waits up to `limit` for it. A call
/// still blocked then can be neither joined nor abandoned safely, so the
/// test reports `what` and ends the process.
void finishes_within(std::chrono::milliseconds limit, const char* what,
                     const std::function<void()>& call) {
  std::packaged_task<void()> task(call);
  std::future<void> done = task.get_future();
  std::thread worker(std::move(task));
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "%s: not done within %lld ms\n", what,
                 static_cast<long long>(limit.count()));
    std::_Exit(1);
  }
  worker.join();
}

TEST(Daemon, AClientThatNeverReadsCannotWedgeAnotherTenant) {
  // Regression: a client that pipelined plan frames for a cached request
  // and never read its socket left every plan worker blocked in send(),
  // and another tenant's miss was never answered. A response that cannot
  // be sent within kIoDeadline now shuts its connection down, and the
  // plan jobs still queued for it settle without a search.
  pland::DaemonOptions options;
  options.num_workers = 1;
  DaemonFixture fx("wedge", std::move(options));
  ASSERT_TRUE(fx.daemon->start());
  const std::string path = fx.daemon->socket_path();
  const api::PlanRequest cached = resnet_request();
  {
    auto warm = api::RemoteSession::connect(path, "hog");
    ASSERT_TRUE(warm.has_value());
    ASSERT_TRUE(warm->plan_raw(cached).has_value());
  }
  const std::string frame =
      R"({"v":1,"type":"plan","id":1,"tenant":"hog","request":)" +
      api::request_to_json(cached) + "}";
  const int hog = connect_raw(path);
  ASSERT_GE(hog, 0);
  std::thread pipeliner([hog, &frame] {
    for (int i = 0; i < 200; ++i)
      if (!pland::write_frame(hog, frame)) break;  // the daemon hung up
  });

  bool answered = false;
  finishes_within(pland::kIoDeadline + std::chrono::seconds(3),
                  "another tenant's miss", [&] {
                    auto session = api::RemoteSession::connect(path, "other");
                    answered = session.has_value() &&
                               session->plan_raw(resnet_request(64, 10))
                                   .has_value();
                  });
  EXPECT_TRUE(answered);
  pipeliner.join();
  // The hog's responses stopped with its connection: it reads what was
  // sent in time, then the end of the stream.
  const timeval patience{5, 0};
  ::setsockopt(hog, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof patience);
  char buffer[64 * 1024];
  ssize_t n;
  while ((n = ::recv(hog, buffer, sizeof buffer, 0)) > 0) {
  }
  EXPECT_TRUE(n == 0 || errno == ECONNRESET) << std::strerror(errno);
  ::close(hog);
  EXPECT_EQ(fx.daemon->stats().engine.searches, 2u);  // warm-up + other
  const auto t0 = std::chrono::steady_clock::now();
  fx.daemon->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, pland::kIoDeadline);
}

TEST(Daemon, ConnectionsPastTheCapAreRefusedAndStalledFramesCloseInTime) {
  DaemonFixture fx("cap");
  ASSERT_TRUE(fx.daemon->start());
  const std::string path = fx.daemon->socket_path();
  ASSERT_TRUE(fresh_ping(path));  // warm the daemon up
  const int threads_before = process_threads();
  const std::int64_t rss_before_kb = resident_kb();
  ASSERT_GT(threads_before, 0);
  ASSERT_GT(rss_before_kb, 0);

  // Every client announces a 64 MiB frame and sends none of it.
  const std::string header = frame_prefix(pland::kMaxFrameBytes - 1);
  const auto opened = std::chrono::steady_clock::now();
  std::vector<int> fds;
  for (std::size_t i = 0; i < pland::kMaxConnections + 8; ++i) {
    const int fd = connect_raw(path);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::write(fd, header.data(), header.size()), 4);
    fds.push_back(fd);
  }
  // Past the cap: one kOverloaded envelope, then the end of the stream.
  for (std::size_t i = pland::kMaxConnections; i < fds.size(); ++i) {
    std::string reply;
    ASSERT_TRUE(readable_within(fds[i], std::chrono::seconds(5))) << i;
    ASSERT_EQ(pland::read_frame(fds[i], &reply), pland::ReadStatus::kOk);
    const util::json::Value env = util::json::parse(reply);
    EXPECT_EQ(env.at("type").as_string(), "error");
    EXPECT_FALSE(env.at("ok").as_bool());
    EXPECT_EQ(env.at("error").at("code").as_string(), "overloaded");
    EXPECT_GT(env.at("error").at("retry_after").as_double(), 0.0);
    EXPECT_TRUE(reads_eof_within(fds[i], std::chrono::seconds(1))) << i;
  }
  EXPECT_EQ(fx.daemon->open_connections(), pland::kMaxConnections);
  EXPECT_LE(process_threads(),
            threads_before + static_cast<int>(pland::kMaxConnections));
  // Memory follows the bytes received, not the 4 GiB announced: ~64 KB of
  // frame buffer and a thread stack's touched pages per reader (~4 MB in
  // all). Sanitizer builds add their own state per thread, ~1.3 MB of it
  // under TSan.
#if defined(__SANITIZE_THREAD__)
  constexpr std::int64_t kMaxGrowthKb = 128 * 1024;
#elif defined(__SANITIZE_ADDRESS__)
  constexpr std::int64_t kMaxGrowthKb = 32 * 1024;
#else
  constexpr std::int64_t kMaxGrowthKb = 8 * 1024;
#endif
  const std::int64_t grown_kb = resident_kb() - rss_before_kb;
  EXPECT_LT(grown_kb, kMaxGrowthKb) << "RSS grew " << grown_kb << " kB";

  // The held frames never complete: each connection closes within twice
  // the deadline of its first byte, and a fresh client is served again.
  for (std::size_t i = 0; i < pland::kMaxConnections; ++i) {
    const auto left = 2 * pland::kIoDeadline + std::chrono::seconds(1) -
                      (std::chrono::steady_clock::now() - opened);
    EXPECT_TRUE(reads_eof_within(
        fds[i], std::chrono::duration_cast<std::chrono::milliseconds>(left)))
        << "held connection " << i;
  }
  for (const int fd : fds) ::close(fd);
  EXPECT_TRUE(fresh_ping(path));
}

TEST(Daemon, AConnectionIdleLongerThanTheDeadlineIsStillServed) {
  DaemonFixture fx("idle");
  ASSERT_TRUE(fx.daemon->start());
  auto session = api::RemoteSession::connect(fx.daemon->socket_path());
  ASSERT_TRUE(session.has_value());
  ASSERT_TRUE(session->ping());
  std::this_thread::sleep_for(pland::kIoDeadline +
                              std::chrono::milliseconds(500));
  EXPECT_TRUE(session->ping());
  EXPECT_EQ(fx.daemon->stats().protocol_errors, 0u);
}

TEST(Daemon, StopWithHalfSentFramesHeldOpenReturnsPromptly) {
  DaemonFixture fx("half");
  ASSERT_TRUE(fx.daemon->start());
  const std::string path = fx.daemon->socket_path();
  std::vector<int> fds;
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_raw(path);
    ASSERT_GE(fd, 0);
    const std::string half = frame_prefix(100) + std::string(10, '{');
    ASSERT_EQ(::write(fd, half.data(), half.size()),
              static_cast<ssize_t>(half.size()));
    fds.push_back(fd);
  }
  ASSERT_TRUE(fresh_ping(path));  // every half frame's reader is running
  const auto t0 = std::chrono::steady_clock::now();
  fx.daemon->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
  EXPECT_EQ(fx.daemon->open_connections(), 0u);
  for (const int fd : fds) ::close(fd);
}

/// Scheduling policy and CPU ticks (utime + stime) of each of this
/// process's threads, by tid, from /proc/self/task/<tid>/stat.
std::map<int, std::pair<int, long>> thread_policies_and_ticks() {
  std::map<int, std::pair<int, long>> threads;
  for (const auto& task : fs::directory_iterator("/proc/self/task")) {
    std::ifstream in(task.path() / "stat");
    const std::string stat((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto comm_end = stat.rfind(')');
    if (comm_end == std::string::npos) continue;  // the thread just ended
    // After the command name: field 3 (state) onward. utime and stime are
    // fields 14 and 15, the policy field 41.
    std::istringstream rest(stat.substr(comm_end + 2));
    const std::vector<std::string> f{std::istream_iterator<std::string>(rest),
                                     std::istream_iterator<std::string>()};
    if (f.size() < 39) continue;
    threads[std::stoi(task.path().filename().string())] = {
        std::stoi(f[38]), std::stol(f[11]) + std::stol(f[12])};
  }
  return threads;
}

TEST(Daemon, BoundedRemoteSearchesRunAtThePlanWorkersPolicy) {
  // A request with limits searches on the Engine's pool, not on the plan
  // worker that took it. The pool's threads are started by that worker
  // and inherit its policy, so every thread that burns CPU during the
  // search must run at the plan workers' own policy.
  int worker_policy = -1;
  std::thread([&worker_policy] {
    sched_param sp{};
    if (::sched_setscheduler(0, SCHED_IDLE, &sp) != 0)
      ::sched_setscheduler(0, SCHED_BATCH, &sp);
    worker_policy = ::sched_getscheduler(0);
  }).join();
  ASSERT_TRUE(worker_policy == SCHED_IDLE || worker_policy == SCHED_BATCH);

  DaemonFixture fx("policy");
  ASSERT_TRUE(fx.daemon->start());
  api::PlanRequest request = resnet_request();
  request.model = graph::make_resnet1001(256);
  request.planner.anneal_iterations = 50'000'000;
  request.limits.deadline = 2.0;
  std::optional<api::PlanErrorCode> code;
  std::thread client([&] {
    auto session = api::RemoteSession::connect(fx.daemon->socket_path());
    if (!session) return;
    auto plan = session->plan_raw(request);
    code = plan ? api::PlanErrorCode::kInternalError : plan.error().code;
  });
  const auto started = std::chrono::steady_clock::now();
  while (fx.daemon->stats().engine.searches == 0 &&
         std::chrono::steady_clock::now() - started < std::chrono::seconds(30))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto before = thread_policies_and_ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const auto after = thread_policies_and_ticks();
  client.join();
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, api::PlanErrorCode::kDeadline);  // still searching

  const int sampler = static_cast<int>(::gettid());
  int busy = 0;
  for (const auto& [tid, policy_ticks] : after) {
    const auto it = before.find(tid);
    const long gained =
        policy_ticks.second - (it == before.end() ? 0 : it->second.second);
    if (tid == sampler || gained <= 0) continue;
    ++busy;
    EXPECT_EQ(policy_ticks.first, worker_policy)
        << "thread " << tid << " gained " << gained << " ticks";
  }
  EXPECT_GT(busy, 0);  // the search did run in the window
}

// ---------------------------------------------------------------------------
// Fleet single-flight across Engines sharing one disk store
// ---------------------------------------------------------------------------

TEST(FleetSingleFlight, TwoEnginesOneDirRunExactlyOneSearch) {
  TempDir dir("fleet");
  api::CacheOptions with_dir;
  with_dir.cache_dir = dir.path;
  const auto a = api::Engine::create({with_dir});
  const auto b = api::Engine::create({with_dir});
  const api::PlanRequest request = resnet_request(512, /*anneal=*/120);

  std::string plan_a, plan_b;
  std::thread ta([&] { plan_a = a->plan_or_throw(request).to_json(); });
  std::thread tb([&] { plan_b = b->plan_or_throw(request).to_json(); });
  ta.join();
  tb.join();

  EXPECT_EQ(plan_a, plan_b);
  // Exactly one of the two engines ran the search; the other either hit
  // the published artifact after waiting on the claim, or joined late and
  // hit directly.
  EXPECT_EQ(a->stats().searches + b->stats().searches, 1u)
      << "a=" << a->stats().describe() << " b=" << b->stats().describe();
}

TEST(FleetSingleFlight, KilledClaimHolderReleasesFollowers) {
  TempDir dir("crash");
  cache::DiskStore store(dir.path);
  const cache::RequestKey key = cache::request_key(resnet_request());
  const std::string claim = store.claim_path(key);

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: raw syscalls only (async-signal-safe post-fork) — take the
    // claim exactly the way a leader process would, then hang "mid-search"
    // until SIGKILL.
    const int fd = ::open(claim.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0 || ::flock(fd, LOCK_EX | LOCK_NB) != 0) ::_exit(1);
    char ok = '1';
    (void)!::write(ready[1], &ok, 1);
    for (;;) ::pause();
  }
  ::close(ready[1]);
  char ok = 0;
  ASSERT_EQ(::read(ready[0], &ok, 1), 1);  // child holds the flock
  ::close(ready[0]);

  // A follower cannot claim while the leader lives...
  EXPECT_FALSE(store.try_claim(key).has_value());

  // ...the leader dies mid-search (no artifact, no unlink)...
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);

  // ...and the kernel-dropped flock releases the follower: wait_for_entry
  // reports the claim dead, and the follower takes over as leader.
  EXPECT_EQ(store.wait_for_entry(key, CancelToken{}),
            cache::DiskStore::WaitOutcome::kReleased);
  auto takeover = store.try_claim(key);
  EXPECT_TRUE(takeover.has_value());
}

// ---------------------------------------------------------------------------
// Multi-process storm: fork+exec karma-planctl clients
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Storm, NClientProcessesColdStormRunsOneSearchByteIdentical) {
  DaemonFixture fx("storm");
  ASSERT_TRUE(fx.daemon->start());

  // The request artifact every client submits.
  const api::PlanRequest request = resnet_request(512, /*anneal=*/60);
  const std::string request_path = fx.dir.path + "/request.json";
  std::ofstream(request_path) << api::request_to_json(request);

  const std::string planctl = std::string(KARMA_BINARY_DIR) +
                              "/karma-planctl";
  ASSERT_TRUE(fs::exists(planctl)) << planctl;

  constexpr int kClients = 8;
  std::vector<pid_t> pids;
  std::vector<std::string> outs;
  for (int i = 0; i < kClients; ++i) {
    outs.push_back(fx.dir.path + "/plan-" + std::to_string(i) + ".json");
    const std::string tenant = "t" + std::to_string(i % 2);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::execl(planctl.c_str(), "karma-planctl", "plan", "--socket",
              fx.daemon->socket_path().c_str(), "--request",
              request_path.c_str(), "--out", outs.back().c_str(),
              "--tenant", tenant.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
  }

  // Byte-identical artifacts in every client's output file.
  const std::string first = read_file(outs[0]);
  ASSERT_FALSE(first.empty());
  for (int i = 1; i < kClients; ++i)
    EXPECT_EQ(read_file(outs[i]), first) << outs[i];

  // Exactly one search fleet-wide: the daemon's engine collapsed the
  // storm (in-process single-flight behind the tenant queues).
  const pland::DaemonStats stats = fx.daemon->stats();
  EXPECT_EQ(stats.engine.searches, 1u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.shed, 0u);
  // Both tenants were served.
  EXPECT_EQ(stats.tenants.size(), 2u);
}

}  // namespace
}  // namespace karma
