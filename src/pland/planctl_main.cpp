// karma-planctl — command-line client for karma-pland (DESIGN.md §12).
//
//   karma-planctl plan --socket S --request req.json [--out plan.json]
//                      [--tenant T]
//   karma-planctl stats --socket S
//   karma-planctl metrics --socket S
//   karma-planctl ping --socket S
//   karma-planctl shutdown --socket S
//   karma-planctl calibrate --socket S [--table table.json]
//   karma-planctl example-request [--model NAME] [--batch N]
//                                 [--fleet STRONG,WEAK] [--out req.json]
//
// `plan` submits a request_io request artifact and writes the plan
// artifact's exact wire bytes to --out (stdout when omitted) — the
// multi-process storm test forks N of these and diffs the outputs for
// byte-identity. `example-request` emits a ready-to-plan request
// artifact (no daemon needed; --model picks from the zoo, default
// resnet50; --fleet S,W embeds a mixed-generation FleetSpec) so a shell
// can drive the full loop: example-request | plan | stats. `metrics` prints the daemon
// registry's snapshot (counters, gauges, latency-histogram percentiles —
// DESIGN.md §15). `calibrate` installs a fitted
// calib::CalibrationTable on the daemon node-wide (omitting --table
// clears back to the analytic model); the new active hash prints on
// stdout and also shows in `stats` as "calibration". Exit codes: 0 =
// plan returned, 2 = the daemon answered with a PlanError (its
// describe() goes to stderr), 3 = transport or usage failure.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/api/remote_session.h"
#include "src/api/request_io.h"
#include "src/calib/table.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: karma-planctl plan --socket S --request FILE [--out FILE]"
      " [--tenant T]\n"
      "       karma-planctl {stats|metrics|ping|shutdown} --socket S\n"
      "       karma-planctl calibrate --socket S [--table FILE]\n"
      "       karma-planctl example-request [--model NAME] [--batch N]\n"
      "                                     [--fleet STRONG,WEAK]"
      " [--out FILE]\n"
      "models: resnet50 resnet200 vgg16 wrn28-10 unet lstm transformer"
      " transformer-chain\n");
  return 3;
}

/// Zoo lookup for example-request. Transformer variants use the smallest
/// Megatron config (0.7B) so the artifact stays shell-pipeline sized.
bool make_zoo_model(const std::string& name, std::int64_t batch,
                    karma::graph::Model* out) {
  using namespace karma::graph;
  if (name == "resnet50") *out = make_resnet50(batch);
  else if (name == "resnet200") *out = make_resnet200(batch);
  else if (name == "vgg16") *out = make_vgg16(batch);
  else if (name == "wrn28-10") *out = make_wrn28_10(batch);
  else if (name == "unet") *out = make_unet(batch);
  else if (name == "lstm") *out = make_lstm_seq2seq(batch);
  else if (name == "transformer")
    *out = make_transformer(megatron_config(0), batch);
  else if (name == "transformer-chain")
    *out = make_transformer_chain(megatron_config(0), batch);
  else return false;
  return true;
}

bool write_file_or_stdout(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);
    return true;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << text << '\n';
  return out.good();
}

/// Writes a result to `path` (stdout when empty) and returns the exit
/// code: 0 written, 2 the daemon's PlanError, 3 transport or write failure.
int finish(const karma::api::Expected<std::string, karma::api::PlanError>& out,
           const std::string& path = {}) {
  if (!out) {
    std::fprintf(stderr, "karma-planctl: %s\n",
                 out.error().describe().c_str());
    return out.error().code == karma::api::PlanErrorCode::kUnavailable ? 3
                                                                        : 2;
  }
  if (!write_file_or_stdout(path, out.value())) {
    std::fprintf(stderr, "karma-planctl: cannot write '%s'\n", path.c_str());
    return 3;
  }
  return 0;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::string socket_path, request_path, out_path, tenant, table_path;
  std::string model_name = "resnet50", fleet_spec;
  std::int64_t batch = 256;
  for (int i = 2; i < argc; i += 2) {  // every option takes a value
    if (i + 1 >= argc) return usage();
    const std::string arg = argv[i];
    const char* v = argv[i + 1];
    if (arg == "--socket") socket_path = v;
    else if (arg == "--request") request_path = v;
    else if (arg == "--table") table_path = v;
    else if (arg == "--out") out_path = v;
    else if (arg == "--tenant") tenant = v;
    else if (arg == "--batch") batch = std::atoll(v);
    else if (arg == "--model") model_name = v;
    else if (arg == "--fleet") fleet_spec = v;
    else return usage();
  }

  if (cmd == "example-request") {
    if (batch <= 0) return usage();
    karma::api::PlanRequest request;
    if (!make_zoo_model(model_name, batch, &request.model)) {
      std::fprintf(stderr, "karma-planctl: unknown model '%s'\n",
                   model_name.c_str());
      return usage();
    }
    request.device = karma::sim::v100_abci();
    request.planner.enable_recompute = true;
    request.optimizer.kind = karma::api::OptimizerSpec::Kind::kAdam;
    if (!fleet_spec.empty()) {
      int strong = 0, weak = 0;
      if (std::sscanf(fleet_spec.c_str(), "%d,%d", &strong, &weak) != 2 ||
          strong < 0 || weak < 0 || strong + weak < 2) {
        std::fprintf(stderr, "karma-planctl: --fleet wants STRONG,WEAK"
                             " with >= 2 nodes total\n");
        return usage();
      }
      request.fleet = karma::place::mixed_generation_fleet(
          strong, weak, /*weak_host_capacity=*/48LL << 30);
    }
    return finish(karma::api::request_to_json(request), out_path);
  }

  if (socket_path.empty()) return usage();

  auto connected = karma::api::RemoteSession::connect(socket_path, tenant);
  if (!connected) {
    std::fprintf(stderr, "karma-planctl: %s\n",
                 connected.error().message.c_str());
    return 3;
  }
  karma::api::RemoteSession session = std::move(connected).value();

  if (cmd == "ping") {
    if (!session.ping()) {
      std::fprintf(stderr, "karma-planctl: ping failed\n");
      return 3;
    }
    std::printf("pong\n");
    return 0;
  }
  if (cmd == "shutdown") {
    if (!session.shutdown_server()) {
      std::fprintf(stderr, "karma-planctl: shutdown not acknowledged\n");
      return 3;
    }
    return 0;
  }
  if (cmd == "stats") return finish(session.stats_json());
  if (cmd == "metrics") return finish(session.metrics_json());
  if (cmd == "calibrate") {
    std::string table_json;
    if (!table_path.empty()) {
      std::string text;
      if (!read_file(table_path, &text)) {
        std::fprintf(stderr, "karma-planctl: cannot read '%s'\n",
                     table_path.c_str());
        return 3;
      }
      // Validate locally and re-emit canonically, so the daemon hashes
      // the same bytes content_hash() would produce for this table.
      try {
        table_json =
            karma::calib::CalibrationTable::from_json(text).to_json();
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "karma-planctl: bad calibration table: %s\n",
                     ex.what());
        return 3;
      }
    }
    return finish(session.calibrate(table_json));
  }
  if (cmd != "plan" || request_path.empty()) return usage();

  std::string request_json;
  if (!read_file(request_path, &request_json)) {
    std::fprintf(stderr, "karma-planctl: cannot read '%s'\n",
                 request_path.c_str());
    return 3;
  }
  auto parsed = karma::api::request_from_json(request_json);
  if (!parsed) {
    std::fprintf(stderr, "karma-planctl: bad request artifact:\n%s\n",
                 parsed.error().describe().c_str());
    return 3;
  }

  return finish(session.plan_raw(parsed.value()), out_path);
}
