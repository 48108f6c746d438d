// The planner service under load: an in-process karma-pland daemon (2 plan
// workers) whose Engine also serves the in-process hit caller, three
// RemoteSession connections — the "main" client, an "interactive" client
// and a "batch" client — and a separate memory-only Engine for the
// in-process cold searches. Every caller is closed-loop: it waits for each
// plan before sending the next request, as a training rank does.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "plannerbench/src/inputs.h"
#include "plannerbench/src/trace.h"
#include "src/api/remote_session.h"
#include "src/core/planner.h"
#include "src/pland/daemon.h"

namespace plannerbench {

class Service {
 public:
  /// Starts the daemon on `<dir>/pland.sock` (with its plan store under
  /// `<dir>/store` when the recipe asks for one), connects the three
  /// clients and creates the cold-search engine. Throws std::runtime_error
  /// when any step fails.
  Service(const Recipe& recipe, const std::string& dir);
  /// Disconnects the clients and leaves the daemon idle until the process
  /// exits (see service.cpp for why it is not stopped).
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  karma::pland::Daemon& daemon() { return *daemon_; }
  karma::api::Engine& engine() { return *daemon_->engine(); }
  /// Fresh memory-only engine of the in-process cold searches: every
  /// request it sees is a distinct key, so each one misses.
  karma::api::Engine& cold_engine() { return *cold_engine_; }
  karma::api::RemoteSession& main() { return *main_; }
  karma::api::RemoteSession& interactive() { return *interactive_; }
  karma::api::RemoteSession& batch() { return *batch_; }

 private:
  std::unique_ptr<karma::pland::Daemon> daemon_;
  std::shared_ptr<karma::api::Engine> cold_engine_;
  std::optional<karma::api::RemoteSession> main_, interactive_, batch_;
};

/// Latency samples as measured, each with the reference-pass time
/// (reference.h) taken, while the benchmark ran nothing else, next to it.
struct Series {
  std::vector<double> raw;
  std::vector<double> ref_us;
  /// Which request template each sample planned (for per-template stats).
  std::vector<std::size_t> template_id;
  void add(double value, double reference_us, std::size_t id = 0) {
    raw.push_back(value);
    ref_us.push_back(reference_us);
    template_id.push_back(id);
  }
  /// Gives the samples from index `from` on the reference `reference_us`.
  void set_reference(std::size_t from, double reference_us) {
    for (std::size_t i = from; i < ref_us.size(); ++i) ref_us[i] = reference_us;
  }
};

/// Everything one run measured. Latencies are per closed-loop call.
struct Samples {
  Series hit_us;         ///< in-process Engine::plan hits over the hot set
  Series socket_hit_us;  ///< idle RemoteSession::plan_raw hits
  Series busy_hit_us;    ///< interactive hits beside the batch client
  Series cold_ms;        ///< in-process cold searches
  Series miss_ms;        ///< batch cold misses over the socket
  Series repair_ms;      ///< re-requests after a calibrate
  Series fleet_ms;       ///< batch heterogeneous-fleet plans
  /// Simulated samples/s of the plans of the seed-determined set (the
  /// prewarm, every epoch's hot re-plans and the first kBatchMin batch
  /// requests of every epoch): a pure function of the seed and the number
  /// of epochs. Keyed by path and template ("hot:" or "batch:" + label),
  /// so the metric can weigh every template alike.
  std::map<std::string, std::vector<double>> samples_per_s;
  /// The prewarm's in-process cold searches (single-GPU, deep anneal),
  /// with the process CPU time each took.
  std::vector<karma::core::SearchStats> searches;
  std::vector<double> search_cpu_ms;
  std::vector<double> plan_ops;  ///< op count of those plans' schedules
  /// Request bytes the traced run parsed with request_from_json.
  std::uint64_t parsed_request_bytes = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Service counters read when the run ends.
  std::uint64_t expected_searches = 0;  ///< distinct misses issued
  /// The daemon's stats; `engine` counts the searches and joins of both
  /// engines.
  karma::pland::DaemonStats stats;
  double queue_wait_ms = 0.0;  ///< daemon queue-wait histogram p50

  void merge(Samples&& other);
};

/// Runs one workload for `seconds` against `service` (already started),
/// recording spans into `tracer` when it is non-null. `dir` is the run's
/// scratch directory. `between_epochs`, when set, runs after every epoch
/// but the last, while nothing else runs.
Samples run_workload(const Inputs& inputs, const Recipe& recipe,
                     double seconds, Service& service, const std::string& dir,
                     Tracer* tracer,
                     const std::function<void()>& between_epochs = {});

}  // namespace plannerbench
