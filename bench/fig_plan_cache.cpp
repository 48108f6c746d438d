// Cold-vs-warm planning cost with the karma::cache plan cache
// (DESIGN.md §10), on the paper's flagship single-GPU workload.
//
//   $ ./bench_fig_plan_cache [batch] [cache_dir]
//
// Three measurements of the same ResNet-50 PlanRequest:
//   cold       — empty cache: the full Opt-1/Opt-2 search runs (its
//                memoization counters are printed: candidates vs actual
//                re-simulations, per-block cost memo hit rate);
//   warm (mem) — same Engine again: in-memory LRU hit;
//   warm (disk)— fresh Engine, shared cache dir: the persisted v2 plan
//                JSON artifact is loaded, revalidated, and replayed.
//
// Acceptance gates: warm plan() must be >= 10x faster than cold, and every
// warm artifact must be bit-identical to the cold one. The cache key of a
// warm hit must cost <= 0.5x serializing the same request to JSON (median
// Engine::key_for vs median api::request_to_json): both walk every field
// of the model on one core, so the ratio holds on a loaded runner, and it
// fails if the key ever goes back to building text. Reading the
// ResNet-1001 request back must cost <= 4x writing it (median of 11
// api::request_from_json vs api::request_to_json on the same request; the
// writer is the yardstick, and a reader that builds a DOM of the model
// reads 11-14x). The process exits nonzero when any gate fails, so CI can
// smoke-run it.
//
// The default cache dir lives under the build tree (KARMA_DEFAULT_CACHE_DIR,
// injected by CMake) — cache entries are generated artifacts, kept out of
// the working tree and covered by .gitignore.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/api/engine.h"
#include "src/api/request_io.h"
#include "src/cache/disk_store.h"
#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"

#ifndef KARMA_DEFAULT_CACHE_DIR
#define KARMA_DEFAULT_CACHE_DIR "plan-cache"
#endif

namespace {

/// Median wall time of `fn` over `reps` calls, in microseconds.
template <class Fn>
double median_us(int reps, Fn fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(us.begin(), us.begin() + reps / 2, us.end());
  return us[static_cast<std::size_t>(reps / 2)];
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

karma::api::CacheOptions cache_options(const std::string& dir) {
  karma::api::CacheOptions options;
  options.cache_dir = dir;
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace karma;

  const std::int64_t batch = argc > 1 ? std::atoll(argv[1]) : 512;
  const std::string dir = argc > 2 ? argv[2] : KARMA_DEFAULT_CACHE_DIR;

  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  // Search-quality budget: the paper's MIDACO solve converges "in under
  // four minutes"; our annealer stand-in gets a deep refinement budget so
  // the cold measurement reflects a production-quality search rather than
  // the quick default. Warm hits skip all of it either way.
  request.planner.anneal_iterations = 2000;
  request.optimizer.kind = api::OptimizerSpec::Kind::kSgdMomentum;
  request.probe_feasible_batch = false;

  bench::print_section("plan cache: cold vs warm (ResNet-50, batch " +
                       std::to_string(batch) + ")");
  // Guarantee a genuinely cold start by evicting exactly this request's
  // entry — never by wiping the directory, which the caller may share
  // with real cached plans.
  std::filesystem::remove(
      cache::DiskStore(dir).entry_path(cache::request_key(request)));
  std::printf("cache dir: %s\n\n", dir.c_str());

  // ---- Cold: full Opt-1/Opt-2 search ----
  const std::shared_ptr<api::Engine> engine =
      api::Engine::create({cache_options(dir)});
  const double t0 = now_ms();
  const api::Plan cold = engine->plan_or_throw(request);
  const double cold_ms = now_ms() - t0;

  const core::SearchStats& search = cold.search_stats;
  std::printf("cold plan: %.1f ms (iteration %s, %zu blocks)\n", cold_ms,
              format_seconds(cold.iteration_time).c_str(),
              cold.blocks().size());
  std::printf("  Opt-1/Opt-2 search: %lld candidates, %lld re-simulations "
              "(%lld memo hits avoided a full replay)\n",
              static_cast<long long>(search.candidates),
              static_cast<long long>(search.simulations),
              static_cast<long long>(search.memo_hits));
  std::printf("  block-cost memo:    %lld lookups, %lld hits (%.0f%%)\n",
              static_cast<long long>(search.block_cost_lookups),
              static_cast<long long>(search.block_cost_hits),
              search.block_cost_lookups > 0
                  ? 100.0 * static_cast<double>(search.block_cost_hits) /
                        static_cast<double>(search.block_cost_lookups)
                  : 0.0);

  // Warm hits sit in the sub-millisecond range where scheduler noise
  // dominates a single measurement. Noise is one-sided (preemption and
  // cold page-cache only ever ADD time), so the minimum over several
  // repetitions is the robust estimator of the true warm cost — this is
  // what keeps the 10x gate from flaking on loaded CI runners.
  constexpr int kWarmReps = 20;

  // ---- Warm, memory level ----
  api::Plan warm_mem = engine->plan_or_throw(request);
  double mem_ms = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kWarmReps; ++rep) {
    const double t1 = now_ms();
    warm_mem = engine->plan_or_throw(request);
    mem_ms = std::min(mem_ms, now_ms() - t1);
  }

  // ---- Warm, disk level (fresh engine per rep = fresh-process stand-in,
  // so every hit pays the load + revalidate path, never the LRU) ----
  double disk_ms = std::numeric_limits<double>::infinity();
  api::Plan warm_disk = cold;
  std::shared_ptr<api::Engine> fresh;  // last rep's engine, for the stats
  for (int rep = 0; rep < kWarmReps; ++rep) {
    fresh = api::Engine::create({cache_options(dir)});
    const double t2 = now_ms();
    warm_disk = fresh->plan_or_throw(request);
    disk_ms = std::min(disk_ms, now_ms() - t2);
  }

  const bool identical = warm_mem.to_json() == cold.to_json() &&
                         warm_disk.to_json() == cold.to_json();
  std::printf("\nwarm plan (memory LRU):  %8.3f ms  -> %8.1fx speedup\n",
              mem_ms, cold_ms / mem_ms);
  std::printf("warm plan (disk store):  %8.3f ms  -> %8.1fx speedup\n",
              disk_ms, cold_ms / disk_ms);
  std::printf("artifacts bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("engine stats:   %s\n", engine->cache_stats().describe().c_str());
  std::printf("fresh engine:   %s\n", fresh->cache_stats().describe().c_str());

  // ---- Key vs request serialization, both over the whole model ----
  constexpr int kKeyReps = 201;
  std::size_t sink = 0;  // keeps both calls observable
  const double key_us = median_us(kKeyReps, [&] {
    sink += static_cast<std::size_t>(engine->key_for(request).digest.lo & 1);
  });
  const double to_json_us = median_us(kKeyReps, [&] {
    sink += api::request_to_json(request).size();
  });
  const double key_ratio = key_us / to_json_us;
  std::printf("\nkey_for median:          %8.1f us\n", key_us);
  std::printf("request_to_json median:  %8.1f us  -> key/to_json %.2fx "
              "(gate <= 0.5x; sink %zu)\n",
              to_json_us, key_ratio, sink);

  // ---- Request read vs write, on the deepest zoo model ----
  api::PlanRequest deep = request;
  deep.model = graph::make_resnet1001(256);
  const std::string deep_json = api::request_to_json(deep);
  constexpr int kParseReps = 11;
  bool deep_read = true;
  const double write_us = median_us(kParseReps, [&] {
    sink += api::request_to_json(deep).size();
  });
  const double read_us = median_us(kParseReps, [&] {
    deep_read = api::request_from_json(deep_json).has_value() && deep_read;
  });
  const double read_ratio = read_us / write_us;
  std::printf("\nResNet-1001 request (%zu KB):\n", deep_json.size() / 1024);
  std::printf("request_to_json median:  %8.1f us\n", write_us);
  std::printf("request_from_json median:%8.1f us  (%.1f MB/s) -> "
              "from/to_json %.2fx (gate <= 4x)\n",
              read_us, static_cast<double>(deep_json.size()) / read_us,
              read_ratio);

  const bool fast_enough = cold_ms / mem_ms >= 10.0 &&
                           cold_ms / disk_ms >= 10.0;
  const bool key_cheap = key_ratio <= 0.5;
  const bool read_cheap = deep_read && read_ratio <= 4.0;
  std::printf("\n%s: warm >= 10x cold and bit-identical\n",
              identical && fast_enough ? "PASS" : "FAIL");
  std::printf("%s: key_for <= 0.5x request_to_json\n",
              key_cheap ? "PASS" : "FAIL");
  std::printf("%s: ResNet-1001 request_from_json <= 4x request_to_json\n",
              read_cheap ? "PASS" : "FAIL");
  return identical && fast_enough && key_cheap && read_cheap ? 0 : 1;
}
