// Heterogeneous fleet placement (DESIGN.md §16): cost-based shard
// ownership vs round-robin on a mixed-generation fleet, publishing
// BENCH_place.json.
//
//   $ ./bench_fig_placement [batch] [anneal_iterations]
//
// The fleet mixes ample-DRAM A100 nodes with DRAM-starved V100 nodes
// whose shared local NVMe runs contended (queue depth 4, mixed-load read
// penalty). Round-robin hands every node the same number of weight
// shards, so the weak nodes' host reserve crowds their activation spill
// down to the contended SSD and the whole synchronous fleet waits for
// them. Cost-based placement simulates each block's ownership cost per
// device class (the sdpb Block_Cost pattern) and keeps shards on the
// nodes that can afford them.
//
// Acceptance gates (CI reads the exit code, artifacts go to
// BENCH_place.json):
//   - cost-based fleet iteration time >= 1.2x better than round-robin;
//   - the placement is bit-identical across repeated plans (same
//     placement_to_json bytes, same straggler, same composed time);
//   - the identity NVMe-contention model stays invisible: an identity
//     device serializes without any "nvme_contention" key, so every
//     pre-fleet golden and cache key is byte-unchanged.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench/bench_common.h"
#include "src/api/request_io.h"
#include "src/api/plan_io.h"
#include "src/api/session.h"
#include "src/place/fleet_planner.h"
#include "src/util/json.h"

int main(int argc, char** argv) {
  using namespace karma;

  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 18;
  const int anneal = argc > 2 ? std::atoi(argv[2]) : 200;
  const long long weak_gib = argc > 3 ? std::atoll(argv[3]) : 9;

  // The 0.7B Megatron configuration as a linear chain: every block
  // boundary is a clean cut, so what is under study is placement, not
  // skip-edge policy.
  const graph::Model model =
      graph::make_transformer_chain(graph::megatron_config(0), batch);

  // 2 strong + 2 weak nodes. The weak hosts get 9 GiB of DRAM: enough to
  // hold the V100's activation spill OR a round-robin share of the
  // shards, not both — round-robin ownership tips the spill down to the
  // contended SSD.
  const Bytes weak_host = Bytes{weak_gib} << 30;
  place::FleetSpec fleet = place::mixed_generation_fleet(2, 2, weak_host);

  // Mixed-precision Adam: fp32 master + two fp32 moments pinned in host
  // DRAM per fp16 parameter = 12 bytes of state per 2-byte param.
  api::OptimizerSpec optimizer;
  optimizer.kind = api::OptimizerSpec::Kind::kAdam;
  optimizer.state_bytes_per_param_byte = 6.0;

  place::FleetPlanOptions options;
  options.planner.enable_recompute = false;
  options.planner.anneal_iterations = anneal;
  options.placement.optimizer_state_bytes = [optimizer](Bytes param_bytes) {
    return optimizer.host_state_bytes(param_bytes);
  };

  bench::print_section("fleet placement: cost-based vs round-robin (" +
                       model.name() + ", batch " + std::to_string(batch) +
                       ")");
  std::printf("fleet: 2x A100 (512 GiB host) + 2x V100 (%lld GiB host, "
              "contended NVMe qd=4)\n\n",
              static_cast<long long>(weak_host >> 30));

  const auto run = [&](place::PlacementStrategy strategy) {
    place::FleetSpec spec = fleet;
    spec.strategy = strategy;
    return place::plan_fleet(model, spec, options);
  };

  const place::PlacementPlan cost_based =
      run(place::PlacementStrategy::kCostBased).placement;
  const place::PlacementPlan round_robin =
      run(place::PlacementStrategy::kRoundRobin).placement;

  const auto report = [](const char* title, const place::PlacementPlan& p) {
    std::printf("%s: fleet iteration %s (straggler %s)\n", title,
                format_seconds(p.iteration_time).c_str(),
                p.nodes[p.straggler].name.c_str());
    std::printf("  %-8s %-7s %6s %12s %12s %12s %12s\n", "node", "class",
                "shards", "plan", "exch tail", "update", "total");
    for (const place::NodeSummary& n : p.nodes)
      std::printf("  %-8s %-7.7s %6d %12s %12s %12s %12s\n", n.name.c_str(),
                  n.device_name.c_str(), n.owned_blocks,
                  format_seconds(n.plan_iteration_time).c_str(),
                  format_seconds(n.exchange_tail).c_str(),
                  format_seconds(n.update_time).c_str(),
                  format_seconds(n.total_time).c_str());
  };
  report("cost-based ", cost_based);
  report("round-robin", round_robin);

  // ---- Gate 1: cost-based beats round-robin by >= 1.2x ----
  const double speedup =
      round_robin.iteration_time / cost_based.iteration_time;
  const bool faster = speedup >= 1.2;
  std::printf("\nspeedup: %.2fx (gate >= 1.20x) [%s]\n", speedup,
              faster ? "ok" : "FAIL");

  // ---- Gate 2: the placement is bit-identical across runs ----
  const place::PlacementPlan again =
      run(place::PlacementStrategy::kCostBased).placement;
  const bool identical = api::placement_to_json(again) ==
                             api::placement_to_json(cost_based) &&
                         again.straggler == cost_based.straggler &&
                         again.iteration_time == cost_based.iteration_time;
  std::printf("placement bit-identical across runs: %s\n",
              identical ? "yes" : "NO");

  // ---- Gate 3: identity contention is invisible on the wire ----
  // A request whose device carries the default (identity) contention
  // model must serialize to exactly the pre-fleet bytes: no
  // "nvme_contention" key anywhere, so goldens and cache keys written
  // before DESIGN.md §16 still match.
  api::PlanRequest identity_request;
  identity_request.model = graph::make_resnet50(64);
  identity_request.device = sim::v100_abci_nvme();
  const std::string identity_json = api::request_to_json(identity_request);
  bool identity_clean =
      identity_json.find("nvme_contention") == std::string::npos;
  // And a contended device must serialize the model (the weak nodes'
  // fleet JSON carries it) — the key is conditional, not dropped.
  identity_clean = identity_clean &&
                   api::fleet_to_json(fleet).find("nvme_contention") !=
                       std::string::npos;
  std::printf("identity contention leaves request bytes unchanged: %s\n",
              identity_clean ? "yes" : "NO");

  const bool pass = faster && identical && identity_clean;

  // ---- BENCH_place.json (the CI artifact) ----
  {
    util::json::Writer w;
    w.begin_object();
    w.key("model"); w.value(model.name());
    w.key("batch"); w.value(batch);
    w.key("strong_nodes"); w.value(2);
    w.key("weak_nodes"); w.value(2);
    w.key("weak_host_gib");
    w.value(static_cast<double>(weak_host) / (1ll << 30));
    w.key("cost_based_s"); w.value(cost_based.iteration_time);
    w.key("cost_based_straggler");
    w.value(cost_based.nodes[cost_based.straggler].name);
    w.key("round_robin_s"); w.value(round_robin.iteration_time);
    w.key("round_robin_straggler");
    w.value(round_robin.nodes[round_robin.straggler].name);
    w.key("speedup"); w.value(speedup);
    w.key("speedup_gate"); w.value(1.2);
    w.key("speedup_ok"); w.value(faster);
    w.key("bit_identical"); w.value(identical);
    w.key("identity_contention_clean"); w.value(identity_clean);
    w.key("pass"); w.value(pass);
    w.end_object();
    std::ofstream("BENCH_place.json") << w.take() << "\n";
    std::printf("\nwrote BENCH_place.json\n");
  }

  std::printf("gates: speedup %.2fx >= 1.2x [%s], bit-identical [%s], "
              "identity clean [%s] -> %s\n",
              speedup, faster ? "ok" : "FAIL", identical ? "ok" : "FAIL",
              identity_clean ? "ok" : "FAIL", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
