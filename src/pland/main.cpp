// karma-pland — the node-wide planning daemon (DESIGN.md §12).
//
//   karma-pland --socket /run/karma/pland.sock --cache-dir /var/karma/cache
//
// Every training job on the node then plans through this process (via
// api::RemoteSession or karma-planctl): one shared plan cache, fleet-wide
// single-flight, per-tenant fairness, admission control.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/pland/daemon.h"

namespace {

karma::pland::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // A lone atomic store — async-signal-safe. wait() on the main thread
  // observes it and runs the actual (lock-taking) stop.
  if (g_daemon) g_daemon->request_stop_from_signal();
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket PATH [options]\n"
      "  --socket PATH         unix socket to serve on (required)\n"
      "  --cache-dir DIR       persistent plan store directory\n"
      "                        (default: $KARMA_CACHE_DIR, else memory-only)\n"
      "  --workers N           daemon plan workers (default: auto)\n"
      "  --max-queue N         queued misses allowed per tenant before\n"
      "                        shedding kOverloaded (default: 64)\n"
      "  --retry-after SECS    retry hint attached to sheds (default: 0.25)\n"
      "  --tenant-weight T=W   stride-scheduling weight for tenant T\n"
      "                        (repeatable; unlisted tenants weigh 1.0)\n"
      "  --calibration PATH    CalibrationTable JSON to plan with from the\n"
      "                        start (default: $KARMA_CALIB_DIR/\n"
      "                        calibration.json when present; hot-swap at\n"
      "                        runtime with `karma-planctl calibrate`)\n"
      "  --trace-dir DIR       enable request-lifecycle tracing; Chrome\n"
      "                        trace JSON (Perfetto-loadable) is flushed to\n"
      "                        DIR/plan-N.trace.json per completed miss\n",
      argv0);
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  karma::pland::DaemonOptions options;
  for (int i = 1; i < argc; i += 2) {  // every option takes a value
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--socket") {
      options.socket_path = v;
    } else if (arg == "--cache-dir") {
      options.engine.cache.cache_dir = v;
    } else if (arg == "--workers") {
      options.num_workers = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--max-queue") {
      options.max_queue_per_tenant = static_cast<std::size_t>(std::atol(v));
    } else if (arg == "--retry-after") {
      options.retry_after = std::atof(v);
    } else if (arg == "--calibration") {
      options.engine.cache.calibration_path = v;
    } else if (arg == "--trace-dir") {
      options.trace_dir = v;
    } else if (arg == "--tenant-weight") {
      const char* eq = std::strchr(v, '=');
      if (!eq || eq == v) return usage(argv[0]);
      options.tenant_weights[std::string(v, eq)] = std::atof(eq + 1);
    } else {
      return usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) return usage(argv[0]);

  // Engine construction can refuse to start (an unreadable --calibration
  // file is a configuration error, not something to silently plan without).
  std::unique_ptr<karma::pland::Daemon> daemon;
  try {
    daemon = std::make_unique<karma::pland::Daemon>(std::move(options));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "karma-pland: %s\n", ex.what());
    return 1;
  }
  if (!daemon->start()) {
    std::fprintf(stderr,
                 "karma-pland: cannot bind '%s' (another daemon live on the "
                 "path, or the path is invalid)\n",
                 daemon->socket_path().c_str());
    return 1;
  }
  std::fprintf(stderr, "karma-pland: serving on %s\n",
               daemon->socket_path().c_str());

  g_daemon = daemon.get();
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // write_all already sends with MSG_NOSIGNAL; this covers any other fd a
  // disconnected client could turn into a fatal SIGPIPE.
  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  sigaction(SIGPIPE, &ign, nullptr);

  daemon->wait();  // returns once a shutdown request or signal lands
  g_daemon = nullptr;
  std::fprintf(stderr, "karma-pland: stopped\n");
  return 0;
}
