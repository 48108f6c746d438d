// Quickstart: the karma::api v2 planning service end to end (DESIGN.md
// §8, §11).
//
//   $ ./quickstart [batch]
//
// One Engine, one request, one artifact: build a PlanRequest (model +
// device + optimizer + planner knobs) -> Engine::plan() -> inspect the
// Plan artifact (blocking, policies, simulated iteration), round-trip it
// through JSON (the plan-cache format), show the structured PlanError a hopeless request produces
// instead of an exception — then the service features: a deadline-bounded
// plan, an async plan cancelled mid-search (both returning structured
// errors with the best-so-far plan attached), and the shared plan cache.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/api/engine.h"
#include "src/baselines/strategies.h"
#include "src/cache/plan_cache.h"
#include "src/graph/memory_model.h"
#include "src/graph/model_zoo.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  using namespace karma;

  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 512;

  // ---- 1. One request describes the whole problem ----
  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.optimizer.kind = api::OptimizerSpec::Kind::kSgdMomentum;
  request.planner.enable_recompute = true;

  const Bytes footprint = graph::in_core_footprint(request.model);
  std::printf("model:   %s, batch %lld (%zu layers, %.1fM params)\n",
              request.model.name().c_str(), static_cast<long long>(batch),
              request.model.num_layers(),
              request.model.total_weight_elems() / 1e6);
  std::printf("device:  %s (%s)\n", request.device.name.c_str(),
              format_bytes(request.device.memory_capacity).c_str());
  std::printf("in-core footprint: %s -> %s\n", format_bytes(footprint).c_str(),
              footprint <= request.device.memory_capacity
                  ? "fits, no out-of-core needed"
                  : "does NOT fit; KARMA required");

  // ---- 2. The v2 service: Engine owns the shared cache + worker pool;
  // every holder of its shared_ptr is a tenant. (For cross-process sharing,
  // api::RemoteSession plans through the karma-pland daemon instead —
  // see the README quickstart.) ----
  const auto engine = api::Engine::create();
  const auto planned = engine->plan(request);
  if (!planned) {
    std::printf("infeasible:\n%s\n", planned.error().describe().c_str());
    return 1;
  }
  const api::Plan& plan = *planned;

  std::printf("\nKARMA blocking (%zu blocks):\n", plan.blocks().size());
  Table table({"block", "layers", "policy", "activations"});
  for (std::size_t b = 0; b < plan.blocks().size(); ++b) {
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(b + 1));
    table.add_cell(std::to_string(plan.blocks()[b].first_layer) + ".." +
                   std::to_string(plan.blocks()[b].last_layer - 1));
    table.add_cell(core::block_policy_name(plan.policies[b]));
    table.add_cell(format_bytes(plan.schedule.costs[b].act_bytes));
  }
  std::printf("%s", table.to_ascii().c_str());

  std::printf("\nschedule (Sec. III-F.3 notation, first 200 chars):\n  %s...\n",
              plan.schedule.schedule_string().substr(0, 200).c_str());
  std::printf("\nsimulated iteration: %s  (%.1f samples/s)\n",
              format_seconds(plan.iteration_time).c_str(),
              static_cast<double>(batch) / plan.iteration_time);
  std::printf("device occupancy:    %.3f\n", plan.occupancy);
  std::printf("peak device memory:  %s of %s\n",
              format_bytes(plan.trace.peak_resident).c_str(),
              format_bytes(request.device.memory_capacity).c_str());
  std::printf("optimizer reserve:   %s pinned in host DRAM\n",
              format_bytes(plan.reserved_host_bytes).c_str());

  // ---- 3. The artifact is a value: serialize, reload, re-simulate ----
  const std::string json = plan.to_json();
  const auto reloaded = api::Plan::from_json(json);
  if (!reloaded) {
    std::printf("round-trip failed: %s\n",
                reloaded.error().describe().c_str());
    return 1;
  }
  const Seconds replay = reloaded->simulate().makespan;
  std::printf("\nJSON round-trip: %zu bytes; replayed makespan %s (%s)\n",
              json.size(), format_seconds(replay).c_str(),
              replay == plan.trace.makespan ? "bit-identical" : "DRIFTED");

  // ---- 4. Structured infeasibility instead of a throw ----
  api::PlanRequest hopeless = request;
  hopeless.device.memory_capacity = 64_MiB;  // smaller than one layer
  hopeless.probe_feasible_batch = false;     // keep the demo fast
  const auto refused = engine->plan(hopeless);
  if (!refused)
    std::printf("\na 64 MiB device is refused with a diagnosis:\n%s\n",
                refused.error().describe().c_str());

  // ---- 5. Deadline-bounded planning: bound the search, keep the best ----
  // A genuinely deep search (ResNet-50 at batch 512 with an effectively
  // unbounded anneal — it would refine for minutes) capped at 150 ms of
  // wall clock: the search returns PlanError{kDeadline} with the best
  // feasible plan it reached attached — a usable (if unpolished)
  // artifact. How far the search got depends on the machine, so only the
  // outcome is printed.
  api::PlanRequest deep = request;
  deep.model = graph::make_resnet50(512);  // fixed: deep at any CLI batch
  deep.planner.anneal_iterations = 50'000'000;
  deep.probe_feasible_batch = false;

  api::PlanRequest bounded = deep;
  bounded.limits.deadline = 0.15;  // seconds
  const auto expired = engine->plan(bounded);
  if (!expired)
    std::printf("\ndeadline-bounded plan (150 ms budget): %s; best-so-far "
                "plan attached: %s\n",
                api::plan_error_code_name(expired.error().code),
                expired.error().partial ? "yes" : "no");

  // ---- 6. Async + cancel: PlanFuture over the worker pool ----
  api::PlanRequest doomed = deep;
  doomed.planner.seed ^= 1;  // distinct request: a fresh flight, not a hit
  api::PlanFuture future = engine->plan_async(doomed);
  // Wait for the search's first feasible candidate, then pull the plug.
  api::PlanProgress progress = future.progress();
  while (!progress.has_best && !progress.done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    progress = future.progress();
  }
  // How many candidates it gets through first depends on timing, so only
  // the outcome is printed.
  future.cancel();
  const auto cancelled = future.get();
  if (!cancelled.has_value())
    std::printf("\ncancelled async plan: %s; partial attached: %s\n",
                api::plan_error_code_name(cancelled.error().code),
                cancelled.error().partial ? "yes" : "no");

  // Compare against the strongest baseline for context.
  if (const auto checkmate =
          baselines::plan_checkmate(request.model, request.device)) {
    std::printf("\nCheckmate (optimal remat) on the same workload: %s "
                "-> KARMA speedup %.2fx\n",
                format_seconds(checkmate->iteration_time).c_str(),
                checkmate->iteration_time / plan.iteration_time);
  }

  // ---- 7. The engine's shared plan cache (DESIGN.md §10, §11) ----
  // Planning is pure, so the Engine memoizes it by request content —
  // positive artifacts and negative diagnoses both. Set KARMA_CACHE_DIR
  // (or EngineOptions::cache.cache_dir) to a directory under your build
  // tree to persist plans across runs: a second identical invocation then
  // reports disk_hits=1 here instead of re-running the whole Opt-1/Opt-2
  // search. Note the cancelled and deadline-bounded searches above left
  // no cache entries behind (only completed searches are cached).
  std::printf("\nplan cache [%s]: %s\n",
              engine->options().cache.cache_dir.empty()
                  ? "memory-only; set KARMA_CACHE_DIR to persist"
                  : engine->options().cache.cache_dir.c_str(),
              engine->cache_stats().describe().c_str());
  std::printf("engine: %s\n", engine->stats().describe().c_str());
  return refused ? 1 : 0;
}
