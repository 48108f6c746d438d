// karma-pland: the cross-process planning daemon (DESIGN.md §12).
//
// Three layers of proof:
//   - DAEMON PROTOCOL: RemoteSession against an in-process Daemon —
//     plans byte-identical to the engine's own, hit-path accounting,
//     admission sheds with retry_after, stats, graceful shutdown.
//   - FLEET SINGLE-FLIGHT: two Engines sharing one cache dir run ONE
//     search between them (claim files; flock conflicts across fds even
//     in one process), and a SIGKILLed claim holder releases followers
//     (kernel drops the flock).
//   - MULTI-PROCESS STORM: fork+exec N karma-planctl clients at one
//     daemon — exactly one search fleet-wide, byte-identical artifacts
//     in every client's output file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <memory>
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
  // Regression: reader threads and connection slots must be reclaimed as
  // clients hang up, not accumulated until shutdown. Churn through many
  // short-lived connections, then prove the daemon still serves and has
  // reaped the dead readers down to the one live connection.
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
  // The accept loop reaps on every poll tick (<= 200 ms apart).
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

/// One request frame out, its response frame back, parsed.
util::json::Value frame_round_trip(int fd, const std::string& frame) {
  std::string reply;
  if (!pland::write_frame(fd, frame) ||
      pland::read_frame(fd, &reply) != pland::ReadStatus::kOk)
    throw std::runtime_error("frame exchange failed");
  return util::json::parse(reply);
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
