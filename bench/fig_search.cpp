// Deep-anneal search benchmark (DESIGN.md §14) — the CI artifact behind
// BENCH_search.json.
//
// Question: how much faster does the N-worker portfolio anneal reach
// deep-anneal quality than one serial walk? Both legs run the same
// engine and the same memoized search; only the portfolio width differs.
// The baseline leg is workers=1 at the full 4000-iteration budget.
//
// The headline gate is TIME-TO-TARGET, the standard metric for parallel
// metaheuristics: the baseline runs its full 4000-iteration budget and
// sets the quality bar; the portfolio sweeps ascending budgets and the
// first one whose final plan is at least as good defines the wall-clock.
// That budget's runs then alternate with the baseline's in
// kTargetPairs pairs, and the gate reads the median pair ratio: two
// ~2-10 ms walls taken back to back see the same host, where the minima
// of two sets taken apart did not (one build read 2.81x, then 7.7x).
// This matches how the planner is used (anneal until the plan is good,
// not until a counter runs out) and is honest about WHERE the win comes
// from: the portfolio's diversified temperature rungs escape the plateau
// the serial walk parks on, so it needs a fraction of the iterations.
//
// Gates:
//   1. time-to-target speedup >= 3.0x (cold ResNet-50/1024 deep anneal,
//      median of kTargetPairs alternating pairs)
//   2. equal-budget quality: the portfolio at 4000 iters is <= the
//      baseline's simulated iteration time (never trades quality for speed)
//   3. determinism: two N-worker runs produce bit-identical plans
//   4. layer scaling: a cold ResNet-1001/256 plan (3,340 layers, 4
//      blocks) costs <= 4x a cold ResNet-50/512 plan (172 layers, 5
//      blocks) in wall time per candidate, at anneal_workers = 1 and as
//      the median of kScalingReps runs each. Routing a candidate reads
//      per-block entries of the planner's per-layer cost table, so its
//      cost follows the block count, not the layer count.
//
// Reported, not gated: the 4-worker portfolio's wall at the equal
// 4000-iteration budget (median and range of kReps alternating pairs: one
// pair is two ~5-20 ms walls and moves with whatever else the host runs)
// next to that leg's process CPU time over its wall (how many cores its
// workers actually kept busy; EXPERIMENTS.md explains why a short burst
// of threads keeps it low), the serial leg's operator-new calls per
// candidate, and one replay of the chosen plan, makespan-only (what
// scoring a candidate costs) vs traced (what materializing an incumbent
// costs).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/planner.h"
#include "src/graph/model_zoo.h"
#include "src/sim/device.h"
#include "src/sim/engine.h"
#include "src/util/alloc_counter.h"
#include "src/util/json.h"

using namespace karma;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kIterations = 4000;  // the deep-anneal budget
constexpr int kReps = 5;           // min-of-N wall-clock per leg; also the
                                   // alternating pairs of the equal-budget
                                   // figure
constexpr int kTargetPairs = 9;    // alternating pairs of the to-target gate
constexpr int kReplayCalls = 200;  // replays per timed batch
constexpr int kReplayBatches = 7;  // median-of-N batches per replay figure
constexpr int kScalingReps = 7;    // median-of-N for the layer-scaling leg
constexpr double kScalingGate = 4.0;

core::PlannerOptions leg_options(int workers, int iterations) {
  core::PlannerOptions o;
  o.anneal_iterations = iterations;
  o.anneal_workers = workers;
  return o;
}

double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct LegResult {
  double wall = 1e100;  // min over kReps
  core::PlanResult result;
  std::vector<double> cpu_wall_ratios;  // one per run
  double allocations_per_candidate = 0.0;  // of the last run
};

/// One timed plan() into `leg` (which keeps the minimum wall); returns
/// this run's wall.
double run_once(const graph::Model& model, const sim::DeviceSpec& device,
                const core::PlannerOptions& options, LegResult& leg) {
  const core::KarmaPlanner planner(model, device, options);
  const std::uint64_t allocations = util::allocations();
  const double cpu0 = cpu_seconds();
  const double t0 = now_seconds();
  core::PlanResult r = planner.plan();
  const double wall = now_seconds() - t0;
  leg.cpu_wall_ratios.push_back((cpu_seconds() - cpu0) / wall);
  leg.allocations_per_candidate =
      static_cast<double>(util::allocations() - allocations) /
      static_cast<double>(std::max<std::int64_t>(1, r.search_stats.candidates));
  leg.wall = std::min(leg.wall, wall);
  leg.result = std::move(r);
  return wall;
}

LegResult run_leg(const graph::Model& model, const sim::DeviceSpec& device,
                  const core::PlannerOptions& options) {
  LegResult leg;
  for (int rep = 0; rep < kReps; ++rep) run_once(model, device, options, leg);
  return leg;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over kReplayBatches of the per-call wall of `replay`, in us.
template <typename Replay>
double replay_us(const Replay& replay) {
  std::vector<double> per_call;
  for (int batch = 0; batch < kReplayBatches; ++batch) {
    const double t0 = now_seconds();
    for (int i = 0; i < kReplayCalls; ++i) replay();
    per_call.push_back((now_seconds() - t0) * 1e6 / kReplayCalls);
  }
  return median(per_call);
}

void print_leg(const char* name, const LegResult& leg) {
  const auto& s = leg.result.search_stats;
  std::printf("%-22s %8.4f s wall  it=%.6f ms  sims=%lld  memo_hits=%lld\n",
              name, leg.wall, leg.result.iteration_time * 1e3,
              static_cast<long long>(s.simulations),
              static_cast<long long>(s.memo_hits));
}

void write_leg(util::json::Writer& w, const char* name, const LegResult& leg) {
  w.key(name);
  w.begin_object();
  w.key("wall_s"); w.value(leg.wall);
  w.key("iteration_time_s"); w.value(leg.result.iteration_time);
  w.key("simulations"); w.value(leg.result.search_stats.simulations);
  w.key("memo_hits"); w.value(leg.result.search_stats.memo_hits);
  w.end_object();
}

struct ScalingLeg {
  double wall = 0.0;  // median over kScalingReps, planner build included
  core::PlanResult result;
  double us_per_candidate() const {
    return wall * 1e6 / static_cast<double>(result.search_stats.candidates);
  }
};

ScalingLeg run_scaling_leg(const graph::Model& model,
                           const sim::DeviceSpec& device) {
  ScalingLeg leg;
  std::vector<double> walls;
  for (int rep = 0; rep < kScalingReps; ++rep) {
    const double t0 = now_seconds();
    const core::KarmaPlanner planner(
        model, device, leg_options(1, core::PlannerOptions{}.anneal_iterations));
    leg.result = planner.plan();
    walls.push_back(now_seconds() - t0);
  }
  leg.wall = median(walls);
  return leg;
}

void print_scaling_leg(const char* name, const graph::Model& model,
                       const ScalingLeg& leg) {
  std::printf("  %-16s %5zu layers  %2zu blocks  %5lld candidates  "
              "%8.3f ms  %7.2f us/candidate\n",
              name, model.num_layers(), leg.result.schedule.blocks.size(),
              static_cast<long long>(leg.result.search_stats.candidates),
              leg.wall * 1e3, leg.us_per_candidate());
}

void write_scaling_leg(util::json::Writer& w, const char* name,
                       const graph::Model& model, const ScalingLeg& leg) {
  w.key(name);
  w.begin_object();
  w.key("layers"); w.value(static_cast<std::int64_t>(model.num_layers()));
  w.key("blocks");
  w.value(static_cast<std::int64_t>(leg.result.schedule.blocks.size()));
  w.key("candidates"); w.value(leg.result.search_stats.candidates);
  w.key("median_wall_s"); w.value(leg.wall);
  w.key("us_per_candidate"); w.value(leg.us_per_candidate());
  w.end_object();
}

}  // namespace

int main() {
  // ResNet-50 at batch 1024 on the 16 GB V100: genuinely out-of-core
  // (the paper's regime) — the planner lands on ~24 blocks / ~87 ops, so
  // replay cost is real.
  const graph::Model model = graph::make_resnet50(1024);
  const sim::DeviceSpec device = sim::v100_abci();
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("workload: %s batch 1024, deep anneal %d iterations, "
              "hardware_concurrency=%u\n\n",
              model.name().c_str(), kIterations, hw);

  // ---- Fixed-budget legs: serial walk vs 4-worker portfolio ----
  // The runs alternate, so a slow spell of the host lands on both legs;
  // the equal-budget figure is the median of the per-pair wall ratios.
  LegResult serial, portfolio;
  std::vector<double> pair_ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    const double s =
        run_once(model, device, leg_options(1, kIterations), serial);
    const double p =
        run_once(model, device, leg_options(4, kIterations), portfolio);
    pair_ratios.push_back(s / p);
  }
  print_leg("baseline (workers=1)", serial);
  print_leg("4-worker portfolio", portfolio);
  std::printf("plan: %d blocks, %zu ops\n\n",
              static_cast<int>(portfolio.result.schedule.blocks.size()),
              portfolio.result.schedule.ops.size());

  // ---- Gate 3: N-worker determinism ----
  const LegResult portfolio_again =
      run_leg(model, device, leg_options(4, kIterations));
  const bool deterministic =
      portfolio.result.iteration_time ==
          portfolio_again.result.iteration_time &&
      portfolio.result.policies == portfolio_again.result.policies &&
      portfolio.result.schedule.schedule_string() ==
          portfolio_again.result.schedule.schedule_string();
  if (!deterministic)
    std::printf("FAIL: two 4-worker runs disagree\n");

  // ---- Gate 2: equal-budget quality ----
  const bool quality_ok = portfolio.result.iteration_time <=
                         serial.result.iteration_time * (1.0 + 1e-12);
  if (!quality_ok)
    std::printf("FAIL: portfolio at full budget lost quality vs baseline\n");
  const double speedup_equal_budget = median(pair_ratios);
  const double speedup_equal_budget_min =
      *std::min_element(pair_ratios.begin(), pair_ratios.end());
  const double speedup_equal_budget_max =
      *std::max_element(pair_ratios.begin(), pair_ratios.end());
  const double portfolio_cpu_wall = median(portfolio.cpu_wall_ratios);

  // ---- Gate 1: time-to-target ----
  const double target = serial.result.iteration_time;
  std::printf("time-to-target sweep (target: baseline it=%.6f ms)\n",
              target * 1e3);
  // The plans are deterministic, so one run per budget finds the first
  // that reaches the target.
  const std::vector<int> budgets = {250, 500, 1000, 2000, kIterations};
  double ttt_it = 0.0;
  int ttt_budget = 0;
  for (const int budget : budgets) {
    LegResult probe;
    run_once(model, device, leg_options(4, budget), probe);
    const bool reached =
        probe.result.iteration_time <= target * (1.0 + 1e-12);
    std::printf("  %5d iters: %8.4f s wall  it=%.6f ms  %s\n", budget,
                probe.wall, probe.result.iteration_time * 1e3,
                reached ? "<= target" : "above target");
    if (reached) {
      ttt_it = probe.result.iteration_time;
      ttt_budget = budget;
      break;
    }
  }
  // Timed in alternating pairs with the baseline, like the equal-budget
  // figure: the gate is the median of the per-pair wall ratios.
  LegResult ttt_serial, ttt_probe;
  std::vector<double> ttt_ratios;
  for (int rep = 0; ttt_budget > 0 && rep < kTargetPairs; ++rep) {
    const double s =
        run_once(model, device, leg_options(1, kIterations), ttt_serial);
    const double p =
        run_once(model, device, leg_options(4, ttt_budget), ttt_probe);
    ttt_ratios.push_back(s / p);
  }
  double ttt_wall = 0.0, speedup_ttt = 0.0;
  double speedup_ttt_min = 0.0, speedup_ttt_max = 0.0;
  if (!ttt_ratios.empty()) {
    ttt_wall = ttt_probe.wall;
    speedup_ttt = median(ttt_ratios);
    speedup_ttt_min = *std::min_element(ttt_ratios.begin(), ttt_ratios.end());
    speedup_ttt_max = *std::max_element(ttt_ratios.begin(), ttt_ratios.end());
  }
  const bool ttt_ok = speedup_ttt >= 3.0;
  if (!ttt_ok)
    std::printf("FAIL: time-to-target speedup %.2fx below the 3.0x gate\n",
                speedup_ttt);

  std::printf("\n4-worker portfolio at equal 4000-iteration budget: %.2fx "
              "wall (median of %d alternating pairs, %.2f-%.2fx; "
              "hardware_concurrency=%u) at CPU/wall %.2f; its real "
              "contribution is quality per iteration — see the sweep "
              "above\n",
              speedup_equal_budget, kReps, speedup_equal_budget_min,
              speedup_equal_budget_max, hw, portfolio_cpu_wall);
  std::printf("serial search: %.2f allocations per candidate\n",
              serial.allocations_per_candidate);
  std::printf("time-to-target: %.2fx (%d of %d iterations; median of %d "
              "alternating pairs, %.2f-%.2fx)\n",
              speedup_ttt, ttt_budget, kIterations, kTargetPairs,
              speedup_ttt_min, speedup_ttt_max);

  // ---- Gate 4: layer scaling of a cold plan's per-candidate cost ----
  const graph::Model deep = graph::make_resnet1001(256);
  const graph::Model shallow = graph::make_resnet50(512);
  const ScalingLeg deep_leg = run_scaling_leg(deep, device);
  const ScalingLeg shallow_leg = run_scaling_leg(shallow, device);
  const double scaling =
      deep_leg.us_per_candidate() / shallow_leg.us_per_candidate();
  const bool scaling_ok = scaling <= kScalingGate;
  std::printf("\nlayer scaling (cold plans, workers=1, median of %d):\n",
              kScalingReps);
  print_scaling_leg("ResNet-1001/256", deep, deep_leg);
  print_scaling_leg("ResNet-50/512", shallow, shallow_leg);
  std::printf("per-candidate ratio: %.2fx (gate <= %.1fx)\n", scaling,
              kScalingGate);
  if (!scaling_ok)
    std::printf("FAIL: ResNet-1001 costs %.2fx ResNet-50 per candidate\n",
                scaling);

  // ---- Reported, not gated: one candidate's replay, lean vs traced ----
  // The search scores every candidate with the makespan-only replay and
  // runs the traced one only for a new incumbent.
  const sim::Engine engine(device);
  const sim::Plan& chosen = portfolio.result.schedule;
  sim::ReplayScratch scratch;
  const double score_us =
      replay_us([&] { return engine.makespan(chosen, scratch); });
  const double trace_us = replay_us([&] { return engine.run(chosen); });
  std::printf("\nreplay of the chosen plan (%zu ops, median of %d x %d): "
              "score %.2f us, trace %.2f us\n",
              chosen.ops.size(), kReplayBatches, kReplayCalls, score_us,
              trace_us);

  const bool pass = deterministic && quality_ok && ttt_ok && scaling_ok;

  // ---- BENCH_search.json (the CI artifact) ----
  {
    util::json::Writer w;
    w.begin_object();
    w.key("bench"); w.value("search");
    w.key("workload");
    w.begin_object();
    w.key("model"); w.value(model.name());
    w.key("batch"); w.value(std::int64_t{1024});
    w.key("anneal_iterations"); w.value(std::int64_t{kIterations});
    w.key("blocks");
    w.value(static_cast<std::int64_t>(portfolio.result.schedule.blocks.size()));
    w.key("plan_ops");
    w.value(static_cast<std::int64_t>(portfolio.result.schedule.ops.size()));
    w.key("hardware_concurrency"); w.value(static_cast<std::int64_t>(hw));
    w.end_object();
    w.key("legs");
    w.begin_object();
    write_leg(w, "baseline_w1", serial);
    write_leg(w, "portfolio_w4", portfolio);
    w.end_object();
    w.key("time_to_target");
    w.begin_object();
    w.key("target_iteration_time_s"); w.value(target);
    w.key("budget_iterations");
    w.value(static_cast<std::int64_t>(ttt_budget));
    w.key("wall_s"); w.value(ttt_wall);
    w.key("iteration_time_s"); w.value(ttt_it);
    w.key("speedup"); w.value(speedup_ttt);
    w.key("speedup_min"); w.value(speedup_ttt_min);
    w.key("speedup_max"); w.value(speedup_ttt_max);
    w.key("pairs"); w.value(std::int64_t{kTargetPairs});
    w.end_object();
    w.key("equal_budget_speedup"); w.value(speedup_equal_budget);
    w.key("equal_budget_speedup_min"); w.value(speedup_equal_budget_min);
    w.key("equal_budget_speedup_max"); w.value(speedup_equal_budget_max);
    w.key("equal_budget_pairs"); w.value(std::int64_t{kReps});
    w.key("portfolio_w4_cpu_wall_ratio"); w.value(portfolio_cpu_wall);
    w.key("serial_allocations_per_candidate");
    w.value(serial.allocations_per_candidate);
    w.key("replay");
    w.begin_object();
    w.key("plan_ops"); w.value(static_cast<std::int64_t>(chosen.ops.size()));
    w.key("score_us"); w.value(score_us);
    w.key("trace_us"); w.value(trace_us);
    w.end_object();
    w.key("layer_scaling");
    w.begin_object();
    write_scaling_leg(w, "resnet1001_256", deep, deep_leg);
    write_scaling_leg(w, "resnet50_512", shallow, shallow_leg);
    w.key("per_candidate_ratio"); w.value(scaling);
    w.end_object();
    w.key("gates");
    w.begin_object();
    w.key("time_to_target_speedup_ge_3x"); w.value(ttt_ok);
    w.key("equal_budget_quality"); w.value(quality_ok);
    w.key("deterministic"); w.value(deterministic);
    w.key("layer_scaling_le_4x"); w.value(scaling_ok);
    w.end_object();
    w.key("pass"); w.value(pass);
    w.end_object();
    std::ofstream("BENCH_search.json") << w.take() << "\n";
    std::printf("\nwrote BENCH_search.json\n");
  }

  std::printf("\n%s: deep-anneal search reaches baseline quality %.1fx "
              "faster (gate >= 3.0x), bit-identical across runs; a "
              "candidate on %zu layers costs %.2fx one on %zu (gate <= "
              "%.1fx)\n",
              pass ? "PASS" : "FAIL", speedup_ttt, deep.num_layers(),
              scaling, shallow.num_layers(), kScalingGate);
  return pass ? 0 : 1;
}
