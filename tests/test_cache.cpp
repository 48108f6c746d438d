// karma::cache: request fingerprinting, the two-level plan cache, disk
// robustness (corruption degrades to a miss, never a crash or a wrong
// plan), Engine integration, the cached feasibility bisection, and the
// Opt-1/Opt-2 search memoization counters (DESIGN.md §10).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/engine.h"
#include "src/api/request_io.h"
#include "src/cache/plan_cache.h"
#include "src/cache/request_key.h"
#include "src/graph/model_zoo.h"
#include "src/place/fleet.h"
#include "src/util/hash.h"
#include "src/util/rng.h"

namespace karma::cache {
namespace {

namespace fs = std::filesystem;

// These tests assert exact hit/miss counters, so ambient cache
// configuration must not leak in: a user's exported KARMA_CACHE_DIR would
// turn cold-path misses into warm disk hits. Cleared before any Engine
// is constructed (static init runs before gtest's main).
[[maybe_unused]] const int kCacheEnvGuard = [] {
  unsetenv("KARMA_CACHE_DIR");
  return 0;
}();

/// Unique scratch directory per test, removed on scope exit.
class TempCacheDir {
 public:
  explicit TempCacheDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("karma-cache-test-" + tag + "-" + std::to_string(::getpid())))
                .string();
    fs::remove_all(path_);
  }
  ~TempCacheDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

api::PlanRequest resnet_request(std::int64_t batch = 256,
                                int anneal_iterations = 0) {
  api::PlanRequest request;
  request.model = graph::make_resnet50(batch);
  request.device = sim::v100_abci();
  request.planner.enable_recompute = true;
  request.planner.anneal_iterations = anneal_iterations;
  request.probe_feasible_batch = false;
  return request;
}

/// Options of an engine that remembers nothing: no memory level, no disk
/// (the env guard above keeps KARMA_CACHE_DIR out), so every plan() runs
/// the full search.
api::CacheOptions no_cache() {
  api::CacheOptions options;
  options.cache_memory_bytes = 0;
  return options;
}

/// Linear chain with controllable activation bytes (test_api idiom).
graph::Model chain_model(int layers, std::int64_t batch, std::int64_t width,
                         const std::string& name = "") {
  graph::Model model(name.empty() ? "chain-" + std::to_string(layers) : name);
  graph::Layer input;
  input.name = "input";
  input.kind = graph::LayerKind::kInput;
  input.in_shape = input.out_shape = graph::TensorShape({batch, width});
  model.add_layer(std::move(input));
  for (int i = 0; i < layers; ++i) {
    graph::Layer fc;
    fc.name = "fc" + std::to_string(i);
    fc.kind = graph::LayerKind::kFullyConnected;
    fc.in_shape = fc.out_shape = graph::TensorShape({batch, width});
    fc.weight_elems = 64;
    model.add_layer(std::move(fc));
  }
  return model;
}

/// `model` rebuilt layer by layer with `edit(index, layer)` applied to
/// each copy — zoo models expose no mutable layers. Skip edges carry over.
template <class Edit>
graph::Model edited(const graph::Model& model, Edit edit,
                    const std::string& name = "") {
  graph::Model out(name.empty() ? model.name() : name, model.dtype_bytes());
  out.set_activation_memory_scale(model.activation_memory_scale());
  for (const graph::Layer& layer : model.layers()) {
    graph::Layer copy = layer;
    edit(layer.id, copy);
    out.add_layer(std::move(copy));
  }
  for (const graph::Layer& layer : model.layers())
    for (const int s : model.succs(layer.id))
      if (s != layer.id + 1) out.add_edge(layer.id, s);
  return out;
}

const auto kNoEdit = [](int, graph::Layer&) {};

api::PlanRequest fleet_request() {
  api::PlanRequest request = resnet_request();
  request.fleet = place::mixed_generation_fleet(2, 2, Bytes{8} << 30);
  return request;
}

api::CacheOptions with_dir(const std::string& dir) {
  api::CacheOptions options;
  options.cache_dir = dir;
  return options;
}

// ---------------------------------------------------------------------------
// RequestKey
// ---------------------------------------------------------------------------

TEST(RequestKey, EqualRequestsProduceEqualKeys) {
  const auto a = request_key(resnet_request());
  const auto b = request_key(resnet_request());
  EXPECT_EQ(a, b);
  EXPECT_EQ(request_fingerprint(resnet_request()),
            request_fingerprint(resnet_request()));
  EXPECT_EQ(a.hex().size(), 32u);
  EXPECT_EQ(a.hex().find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(RequestKey, KeyIsTheDigestOfTheFingerprint) {
  // request_key streams the words request_fingerprint writes out; the two
  // paths must never drift apart.
  api::PlanRequest distributed = resnet_request();
  distributed.distributed = core::DistributedOptions{};
  distributed.distributed->num_gpus = 8;
  for (const api::PlanRequest& r :
       {resnet_request(), distributed, fleet_request()}) {
    for (const std::string calibration : {"", "0123456789abcdef0123"}) {
      const std::string fp = request_fingerprint(r, calibration);
      EXPECT_EQ(fp.size() % 8, 0u);
      EXPECT_EQ(request_key(r, calibration),
                RequestKey{util::digest128(fp)});
    }
  }
}

TEST(RequestKey, ResnetKeyIsPinned) {
  // Changing this hex means every cached plan misses: bump fp_version in
  // src/cache/request_key.cpp in the same change, then update it here.
  EXPECT_EQ(request_key(resnet_request()).hex(),
            "f7f5fdfe3243cda1183de6d566982d62");
}

TEST(RequestKey, Digest128KnownAnswers) {
  // Computed by an independent implementation of the constants and steps
  // documented in src/util/hash.h; lengths straddle the 8-byte word edge.
  const std::pair<std::string, std::string> kVectors[] = {
      {"", "bf8fec90feaa8750b9dc90a8a4ba549a"},
      {"a", "3e0e38070b6cea86dfed73333ae72f44"},
      {"abcdefg", "9b3745047b800d05dd0df021686a7f71"},
      {"abcdefgh", "0452463e0c20b6f38e51f9bdf066da56"},
      {"abcdefghi", "41a09d12c0455cb386dad6d1f31106df"},
      {"0123456789abcdef", "8f12907071d25a0b71914988d4f87bcf"},
  };
  for (const auto& [input, hex] : kVectors)
    EXPECT_EQ(util::digest128(input).hex(), hex) << "length " << input.size();
  // Zero padding is not ambiguous: the byte length closes the stream.
  EXPECT_NE(util::digest128(std::string("a", 1)),
            util::digest128(std::string("a\0", 2)));
}

TEST(RequestKey, Digest128FromHexInvertsHexAndRejectsEverythingElse) {
  for (const char* input : {"", "a", "0123456789abcdef"}) {
    const util::Digest128 d = util::digest128(input);
    const auto back = util::Digest128::from_hex(d.hex());
    ASSERT_TRUE(back.has_value()) << d.hex();
    EXPECT_EQ(*back, d);
  }
  const std::string good = "0123456789abcdef0123456789abcdef";
  ASSERT_TRUE(util::Digest128::from_hex(good).has_value());
  EXPECT_EQ(util::Digest128::from_hex(good)->hi, 0x0123456789abcdefULL);
  const std::string stem = good.substr(0, 31);
  for (const std::string& bad :
       {good.substr(1), good + "0", std::string(),
        "0123456789ABCDEF" + good.substr(16), stem + "g", stem + " ",
        stem + std::string(1, '\0')})
    EXPECT_FALSE(util::Digest128::from_hex(bad).has_value()) << bad;
}

TEST(RequestKey, EveryPlanAffectingFieldChangesTheKey) {
  const api::PlanRequest base = resnet_request();
  const RequestKey base_key = request_key(base);
  const auto differs = [&](auto mutate, const char* what) {
    api::PlanRequest changed = resnet_request();
    mutate(changed);
    EXPECT_NE(request_key(changed), base_key) << "key ignored: " << what;
  };
  differs([](auto& r) { r.model = graph::make_resnet50(512); }, "batch");
  differs([](auto& r) { r.model = graph::make_vgg16(256); }, "model");
  differs([](auto& r) { r.device.memory_capacity /= 2; }, "device capacity");
  differs([](auto& r) { r.device.h2d_bw *= 2; }, "interconnect bw");
  differs([](auto& r) { r.planner.enable_recompute = false; }, "recompute");
  differs([](auto& r) { r.planner.anneal_iterations = 7; }, "anneal budget");
  differs([](auto& r) { r.planner.seed ^= 1; }, "anneal seed");
  differs([](auto& r) { r.planner.max_blocks = 13; }, "max blocks");
  differs([](auto& r) { r.planner.schedule.prefetch_window = 5; },
          "prefetch window");
  differs([](auto& r) { r.planner.schedule.reserved_host_bytes = 4096; },
          "caller host reserve");
  differs([](auto& r) { r.optimizer.kind = api::OptimizerSpec::Kind::kAdam; },
          "optimizer kind");
  differs([](auto& r) { r.optimizer.state_bytes_per_param_byte = 1.5; },
          "optimizer state override");
  differs([](auto& r) { r.distributed = core::DistributedOptions{}; },
          "distributed presence");
  differs([](auto& r) { r.device.nvme_contention.mixed_read_penalty = 2.0; },
          "nvme contention");

  // Model graph edits: the rebuild itself must be invisible to the key.
  ASSERT_EQ(request_key(base), [&] {
    api::PlanRequest r = resnet_request();
    r.model = edited(r.model, kNoEdit);
    return request_key(r);
  }());
  differs([](auto& r) {
    r.model = edited(r.model, [](int id, graph::Layer& l) {
      if (id == 3) {
        std::vector<std::int64_t> dims = l.out_shape.dims();
        dims.back() += 1;
        l.out_shape = graph::TensorShape(dims);
      }
    });
  }, "one layer dim");
  differs([](auto& r) {
    r.model = edited(r.model, [](int id, graph::Layer& l) {
      if (id == 3) l.name += "x";
    });
  }, "one layer name");
  // One skip edge added, and the same edge moved to another target: equal
  // successor counts, so only the target ids tell those two apart.
  const auto with_skip = [](int back) {
    api::PlanRequest r = resnet_request();
    r.model = edited(r.model, kNoEdit);
    r.model.add_edge(0, static_cast<int>(r.model.num_layers()) - back);
    return r;
  };
  EXPECT_NE(request_key(with_skip(1)), base_key) << "one edge";
  EXPECT_NE(request_key(with_skip(1)), request_key(with_skip(2)))
      << "one edge's target";

  EXPECT_NE(request_key(base, "calibrated"), base_key) << "calibration";

  api::PlanRequest dist_a = resnet_request();
  dist_a.distributed = core::DistributedOptions{};
  api::PlanRequest dist_b = resnet_request();
  dist_b.distributed = core::DistributedOptions{};
  dist_b.distributed->num_gpus = 32;
  EXPECT_NE(request_key(dist_a), request_key(dist_b));

  const api::PlanRequest fleet = fleet_request();
  api::PlanRequest fleet_device = fleet_request();
  fleet_device.fleet->nodes[1].device.h2d_bw *= 2;
  EXPECT_NE(request_key(fleet), request_key(fleet_device))
      << "one fleet node's device";

  // Bytes moved across the boundary of two adjacent strings. Calibration
  // is followed by the model name; a fleet node's name by its device's
  // name. Per-string zero padding alone keeps "ab"+"c" apart from
  // "a"+"bc"; a split on a word edge ("abcdefgh"+"c" vs ""+"abcdefghc")
  // packs the same words, so only the length words tell it apart.
  const auto named = [](const std::string& name) {
    api::PlanRequest r = resnet_request();
    r.model = edited(r.model, kNoEdit, name);
    return r;
  };
  EXPECT_NE(request_key(named("c"), "ab"), request_key(named("bc"), "a"));
  EXPECT_NE(request_key(named("c"), "abcdefgh"),
            request_key(named("abcdefghc"), ""));
  api::PlanRequest node_ab = fleet_request();
  node_ab.fleet->nodes[0].name = "ab";
  node_ab.fleet->nodes[0].device.name = "c";
  api::PlanRequest node_a = fleet_request();
  node_a.fleet->nodes[0].name = "a";
  node_a.fleet->nodes[0].device.name = "bc";
  EXPECT_NE(request_key(node_ab), request_key(node_a));
}

TEST(RequestKey, ErrorPathKnobDoesNotChangeTheKey) {
  // probe_feasible_batch shapes the PlanError only, never the artifact —
  // documented exclusion, so warm traffic with a different probe setting
  // still hits.
  api::PlanRequest probing = resnet_request();
  probing.probe_feasible_batch = true;
  EXPECT_EQ(request_key(probing), request_key(resnet_request()));
}

TEST(RequestKey, EdgeInsertionOrderCannotLeakIn) {
  const auto build = [](bool reversed) {
    graph::Model model = chain_model(6, 4, 64, "skips");
    if (reversed) {
      model.add_edge(3, 6);
      model.add_edge(1, 4);
    } else {
      model.add_edge(1, 4);
      model.add_edge(3, 6);
    }
    return model;
  };
  api::PlanRequest a = resnet_request();
  a.model = build(false);
  api::PlanRequest b = resnet_request();
  b.model = build(true);
  EXPECT_EQ(request_fingerprint(a), request_fingerprint(b));
  EXPECT_EQ(request_key(a), request_key(b));
}

// ---------------------------------------------------------------------------
// PlanCache: LRU level
// ---------------------------------------------------------------------------

TEST(PlanCache, ByteCountedLruEvictsColdEntriesAndCounts) {
  // Capacity counts serialized artifact bytes, not entry count (ROADMAP
  // "eviction by resident bytes"): room for two copies of this plan's
  // artifact but not three.
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  const auto artifact_bytes = static_cast<Bytes>(plan.to_json().size());
  PlanCache::Options options;
  options.memory_capacity_bytes = 2 * artifact_bytes + artifact_bytes / 2;
  PlanCache cache(options);

  const RequestKey k1 = request_key(resnet_request(128));
  const RequestKey k2 = request_key(resnet_request(256));
  const RequestKey k3 = request_key(resnet_request(384));

  EXPECT_EQ(cache.lookup(k1), nullptr);
  cache.insert(k1, plan);
  EXPECT_EQ(cache.stats().resident_bytes,
            static_cast<std::uint64_t>(artifact_bytes));
  cache.insert(k2, plan);
  EXPECT_NE(cache.lookup(k1), nullptr);  // k1 now hottest
  cache.insert(k3, plan);                     // over budget: evicts k2
  EXPECT_EQ(cache.lookup(k2), nullptr);
  EXPECT_NE(cache.lookup(k1), nullptr);
  EXPECT_NE(cache.lookup(k3), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.memory_hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.disk_writes, 0u);
  // The gauge tracks what is actually resident and respects the bound.
  EXPECT_EQ(stats.resident_bytes,
            static_cast<std::uint64_t>(2 * artifact_bytes));
  EXPECT_LE(stats.resident_bytes,
            static_cast<std::uint64_t>(options.memory_capacity_bytes));

  cache.clear();
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
}

TEST(PlanCache, OversizedArtifactIsNotAdmittedToMemory) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  PlanCache::Options options;
  options.memory_capacity_bytes =
      static_cast<Bytes>(plan.to_json().size()) / 2;
  PlanCache cache(options);
  cache.insert(request_key(resnet_request(128)), plan);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0u);  // artifact alone exceeds the level
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(cache.lookup(request_key(resnet_request(128))), nullptr);
}

TEST(PlanCache, PlansAndDiagnosesShareOneByteBoundedLru) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  api::PlanError diagnosis;
  diagnosis.code = api::PlanErrorCode::kNoFeasibleBlocking;
  diagnosis.message = "no deadlock-free blocking found";
  diagnosis.model = "chain-4";
  const std::uint64_t plan_bytes = plan.to_json().size();
  const std::uint64_t diagnosis_bytes =
      api::error_to_json(diagnosis).size();
  // Room for the plan and one diagnosis, not a second diagnosis.
  TempCacheDir dir("outcomes");
  PlanCache::Options options;
  options.memory_capacity_bytes =
      static_cast<Bytes>(plan_bytes + diagnosis_bytes);
  options.dir = dir.path();
  PlanCache cache(options);
  const RequestKey plan_key = request_key(resnet_request(128));
  const RequestKey quick_key = request_key(resnet_request(256));
  const RequestKey probed_key = request_key(resnet_request(384));

  cache.insert(plan_key, plan);
  cache.insert(quick_key, diagnosis, /*probed=*/false);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.resident_bytes, plan_bytes + diagnosis_bytes);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.negative_insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  // Only the plan is persisted.
  EXPECT_EQ(stats.disk_writes, 1u);
  EXPECT_TRUE(fs::exists(DiskStore(dir.path()).entry_path(plan_key)));
  EXPECT_FALSE(fs::exists(DiskStore(dir.path()).entry_path(quick_key)));

  // The unprobed diagnosis answers a caller that wants no bisection,
  // marked as memoized, and misses for one that does.
  const auto quick = cache.lookup(quick_key);
  ASSERT_NE(quick, nullptr);
  ASSERT_FALSE(quick->outcome().has_value());
  EXPECT_TRUE(quick->outcome().error().from_negative_cache);
  EXPECT_EQ(quick->outcome().error().message, diagnosis.message);
  EXPECT_EQ(cache.lookup(quick_key, /*want_probe=*/true), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.negative_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // LRU order is now quick (hot), plan (cold). A second diagnosis
  // overflows the budget and evicts the colder entry: the plan.
  cache.insert(probed_key, diagnosis, /*probed=*/true);
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_bytes, 2 * diagnosis_bytes);
  const auto probed = cache.lookup(probed_key, /*want_probe=*/true);
  ASSERT_NE(probed, nullptr);
  EXPECT_FALSE(probed->outcome().has_value());
  // The evicted plan comes back from disk; promoting it evicts the colder
  // diagnosis (quick), which no level can answer any more.
  const auto reloaded = cache.lookup(plan_key);
  ASSERT_NE(reloaded, nullptr);
  ASSERT_TRUE(reloaded->outcome().has_value());
  EXPECT_EQ(reloaded->outcome()->to_json(), plan.to_json());
  stats = cache.stats();
  EXPECT_EQ(stats.memory_hits, 0u);
  EXPECT_EQ(stats.disk_hits, 1u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_bytes, plan_bytes + diagnosis_bytes);
  EXPECT_EQ(cache.lookup(quick_key), nullptr);
  EXPECT_NE(cache.lookup(probed_key), nullptr);
}

// ---------------------------------------------------------------------------
// PlanCache: entries are shared handles with lazily memoized bytes
// ---------------------------------------------------------------------------

TEST(PlanCacheEntry, MemoizedBytesAreTheOutcomesOwnSerialization) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  api::PlanError diagnosis;
  diagnosis.code = api::PlanErrorCode::kNoFeasibleBlocking;
  diagnosis.message = "no deadlock-free blocking found";
  PlanCache cache;
  const RequestKey plan_key = request_key(resnet_request(128));
  const RequestKey diagnosis_key = request_key(resnet_request(256));
  cache.insert(plan_key, plan);
  cache.insert(diagnosis_key, diagnosis);

  const auto hit = cache.lookup(plan_key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->json(), plan.to_json());
  // A diagnosis serves its bytes as every hit reads it: marked memoized.
  const auto negative = cache.lookup(diagnosis_key);
  ASSERT_NE(negative, nullptr);
  api::PlanError served = diagnosis;
  served.from_negative_cache = true;
  EXPECT_EQ(negative->json(), api::error_to_json(served));
  // The weight stays the inserted serialization's, not the memo's.
  EXPECT_EQ(cache.stats().resident_bytes,
            plan.to_json().size() + api::error_to_json(diagnosis).size());
}

TEST(PlanCacheEntry, LookupsShareOneEntrySerializedOnce) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  PlanCache cache;
  const RequestKey key = request_key(resnet_request(128));
  cache.insert(key, plan);

  const auto first = cache.lookup(key);
  const auto second = cache.lookup(key);
  ASSERT_NE(first, nullptr);
  // One entry, not two copies: the same handle and the same bytes.
  EXPECT_EQ(first, second);
  const std::string& bytes = first->json();
  EXPECT_EQ(&second->json(), &bytes);
  EXPECT_EQ(second->json().data(), bytes.data());
  EXPECT_EQ(&first->outcome().value(), &second->outcome().value());
  EXPECT_EQ(cache.stats().memory_hits, 2u);
}

TEST(PlanCacheEntry, ReinsertAndEvictionDropTheOldBytes) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  const auto artifact_bytes = static_cast<Bytes>(plan.to_json().size());
  PlanCache::Options options;
  options.memory_capacity_bytes = artifact_bytes + artifact_bytes / 2;
  PlanCache cache(options);
  const RequestKey k1 = request_key(resnet_request(128));
  const RequestKey k2 = request_key(resnet_request(256));

  cache.insert(k1, plan);
  auto old = cache.lookup(k1);
  ASSERT_NE(old, nullptr);
  old->json();
  // A re-insert replaces the entry: the cache lets go of the old handle
  // (this test holds the only reference), and the new one memoizes anew.
  cache.insert(k1, plan);
  EXPECT_EQ(old.use_count(), 1);
  const auto fresh = cache.lookup(k1);
  ASSERT_NE(fresh, nullptr);
  EXPECT_NE(fresh, old);
  EXPECT_EQ(fresh->json(), old->json());
  EXPECT_NE(fresh->json().data(), old->json().data());

  // Eviction lets go of it too.
  cache.insert(k2, plan);  // room for one: evicts k1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(k1), nullptr);
  EXPECT_EQ(fresh.use_count(), 1);
  EXPECT_EQ(cache.stats().resident_bytes,
            static_cast<std::uint64_t>(artifact_bytes));
}

TEST(PlanCacheEntry, ConcurrentFirstCallsShareOneSerialization) {
  const api::Plan plan =
      api::Engine::create()->plan_or_throw(resnet_request());
  const auto entry =
      std::make_shared<const CachedOutcome>(PlanCache::Outcome(plan));
  constexpr int kThreads = 8;
  std::vector<const std::string*> seen(kThreads, nullptr);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      seen[i] = &entry->json();
    });
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  for (const std::string* bytes : seen) EXPECT_EQ(bytes, seen[0]);
  EXPECT_EQ(*seen[0], plan.to_json());
}

// ---------------------------------------------------------------------------
// Disk level: persistence, atomicity discipline, corruption tolerance
// ---------------------------------------------------------------------------

TEST(PlanCacheDisk, WarmSessionLoadsBitIdenticalPlanFromDisk) {
  TempCacheDir dir("warm");
  const api::PlanRequest request = resnet_request();

  const auto cold = api::Engine::create({with_dir(dir.path())});
  const api::Plan fresh = cold->plan_or_throw(request);
  EXPECT_EQ(cold->cache_stats().disk_writes, 1u);

  const auto warm = api::Engine::create({with_dir(dir.path())});
  const api::Plan reloaded = warm->plan_or_throw(request);
  EXPECT_EQ(reloaded.to_json(), fresh.to_json());
  EXPECT_EQ(warm->cache_stats().disk_hits, 1u);
  EXPECT_EQ(warm->cache_stats().misses, 0u);

  // The disk hit was promoted: a repeat is a memory hit, not a re-parse.
  warm->plan_or_throw(request);
  EXPECT_EQ(warm->cache_stats().memory_hits, 1u);
  EXPECT_EQ(warm->cache_stats().disk_hits, 1u);

  // No temp files left behind by the atomic write discipline. The store's
  // own coordination files (write lock, single-flight claims) are the only
  // non-artifact names allowed.
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    const std::string ext = entry.path().extension().string();
    EXPECT_TRUE(ext == ".json" || ext == ".lock" || ext == ".claim")
        << "stray file: " << entry.path();
  }
}

TEST(PlanCacheDisk, TruncatedAndGarbledEntriesDegradeToCleanMisses) {
  TempCacheDir dir("corrupt");
  const api::PlanRequest request = resnet_request();
  const auto cold = api::Engine::create({with_dir(dir.path())});
  const api::Plan fresh = cold->plan_or_throw(request);

  const std::string entry =
      DiskStore(dir.path()).entry_path(request_key(request));
  ASSERT_TRUE(fs::exists(entry));

  // Truncate mid-artifact (a crashed writer without the atomic rename).
  std::string half = fresh.to_json().substr(0, fresh.to_json().size() / 2);
  std::ofstream(entry, std::ios::trunc) << half;
  const auto truncated = api::Engine::create({with_dir(dir.path())});
  const api::Plan replanned = truncated->plan_or_throw(request);
  EXPECT_EQ(replanned.to_json(), fresh.to_json());  // never a wrong plan
  EXPECT_EQ(truncated->cache_stats().corrupt_entries, 1u);
  EXPECT_EQ(truncated->cache_stats().misses, 1u);

  // The replan healed the entry (atomic overwrite): next engine hits.
  const auto healed = api::Engine::create({with_dir(dir.path())});
  healed->plan_or_throw(request);
  EXPECT_EQ(healed->cache_stats().disk_hits, 1u);

  // Outright garbage.
  std::ofstream(entry, std::ios::trunc) << "not a plan artifact at all";
  const auto garbled = api::Engine::create({with_dir(dir.path())});
  EXPECT_EQ(garbled->plan_or_throw(request).to_json(), fresh.to_json());
  EXPECT_EQ(garbled->cache_stats().corrupt_entries, 1u);
}

TEST(PlanCacheDisk, PropertyCachedThenReloadedEqualsFreshlyPlanned) {
  // Property test over randomized requests: for any feasible request, the
  // plan served by a warm cache (across a process boundary, modeled by a
  // fresh Engine) is bit-identical to planning from scratch with no
  // cache at all.
  TempCacheDir dir("property");
  Rng rng(0xCAFE);
  int planned = 0;
  for (int draw = 0; draw < 8; ++draw) {
    const int layers = 4 + static_cast<int>(rng.next_below(5));
    const std::int64_t width = 256ll << rng.next_below(3);
    const std::int64_t batch = 4ll << rng.next_below(3);
    api::PlanRequest request;
    request.model = chain_model(layers, batch, width,
                                "prop-" + std::to_string(draw));
    request.device = sim::test_device();
    request.planner.anneal_iterations = static_cast<int>(rng.next_below(3)) * 8;
    request.planner.seed = rng.next_u64();
    request.probe_feasible_batch = false;

    const auto fresh = api::Engine::create({no_cache()})->plan(request);
    const auto cached =
        api::Engine::create({with_dir(dir.path())})->plan(request);
    ASSERT_EQ(fresh.has_value(), cached.has_value()) << "draw " << draw;
    if (!fresh.has_value()) continue;  // infeasible draw: nothing to cache
    ++planned;
    const auto reloaded =
        api::Engine::create({with_dir(dir.path())})->plan(request);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(cached->to_json(), fresh->to_json()) << "draw " << draw;
    EXPECT_EQ(reloaded->to_json(), fresh->to_json()) << "draw " << draw;
    // And the reloaded schedule replays to the same makespan, to the bit.
    EXPECT_EQ(reloaded->simulate().makespan, fresh->trace.makespan);
  }
  EXPECT_GE(planned, 4) << "random draws were mostly infeasible; the "
                           "property barely exercised the cache";
}

// ---------------------------------------------------------------------------
// Engine cache configuration
// ---------------------------------------------------------------------------

TEST(SessionCache, ZeroByteDisklessEngineRunsTheFullSearchEveryTime) {
  const auto engine = api::Engine::create({no_cache()});
  const auto a = engine->plan_or_throw(resnet_request());
  const auto b = engine->plan_or_throw(resnet_request());
  EXPECT_EQ(a.to_json(), b.to_json());  // determinism, not caching
  EXPECT_EQ(engine->stats().searches, 2u);
  EXPECT_EQ(engine->cache_stats().insertions, 0u);
  EXPECT_EQ(engine->cache_stats().resident_bytes, 0u);
  EXPECT_GT(b.search_stats.simulations, 0);  // really re-searched
}

TEST(SessionCache, DefaultSessionHonorsCacheDirEnv) {
  TempCacheDir dir("env");
  ASSERT_EQ(setenv("KARMA_CACHE_DIR", dir.path().c_str(), 1), 0);
  const auto engine = api::Engine::create();  // defaults pick up the env var
  unsetenv("KARMA_CACHE_DIR");
  EXPECT_EQ(engine->options().cache.cache_dir, dir.path());
  engine->plan_or_throw(resnet_request());
  EXPECT_EQ(engine->cache_stats().disk_writes, 1u);
  EXPECT_TRUE(
      fs::exists(DiskStore(dir.path()).entry_path(request_key(resnet_request()))));
}

TEST(SessionCache, MemoryHitsWithinOneSession) {
  const auto engine = api::Engine::create();  // default: memory LRU, no disk
  const api::Plan first = engine->plan_or_throw(resnet_request());
  const api::Plan second = engine->plan_or_throw(resnet_request());
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(engine->cache_stats().memory_hits, 1u);
  EXPECT_EQ(engine->cache_stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// Feasibility bisection: probe counting + probe caching
// ---------------------------------------------------------------------------

TEST(SessionCache, BisectionReportsAndCachesItsProbes) {
  api::PlanRequest request;
  request.model = chain_model(4, 8, 32768);  // 1 MiB/layer at batch 8
  request.device = sim::test_device();       // 1 MiB device: infeasible
  request.probe_feasible_batch = true;

  // The first engine diagnoses cold and stores its successful probes as
  // plan artifacts in the shared store.
  TempCacheDir dir("bisect");
  const auto first = api::Engine::create({with_dir(dir.path())})->plan(request);
  ASSERT_FALSE(first.has_value());
  const api::PlanError& e1 = first.error();
  EXPECT_GE(e1.nearest_feasible_batch, 1);
  EXPECT_GT(e1.probe_candidates, 0);   // bisection effort visible
  EXPECT_EQ(e1.probe_cache_hits, 0);   // cold cache: every probe planned

  // A second engine on the same store has no memoized diagnosis (negative
  // entries live in memory only), so it re-runs the bisection — and finds
  // the probe plans on disk.
  const auto engine = api::Engine::create({with_dir(dir.path())});
  const auto second = engine->plan(request);
  ASSERT_FALSE(second.has_value());
  const api::PlanError& e2 = second.error();
  EXPECT_FALSE(e2.from_negative_cache);
  EXPECT_EQ(e2.nearest_feasible_batch, e1.nearest_feasible_batch);
  EXPECT_EQ(e2.probe_candidates, e1.probe_candidates);
  EXPECT_GT(e2.probe_cache_hits, 0);
  EXPECT_LE(e2.probe_cache_hits, e2.probe_candidates);
  EXPECT_GT(engine->cache_stats().disk_hits, 0u);
}

// ---------------------------------------------------------------------------
// Negative-result caching (DESIGN.md §11)
// ---------------------------------------------------------------------------

api::PlanRequest infeasible_request() {
  api::PlanRequest request;
  request.model = chain_model(4, 8, 32768);  // 1 MiB/layer at batch 8
  request.device = sim::test_device();       // 1 MiB device: infeasible
  request.probe_feasible_batch = false;
  return request;
}

TEST(NegativeCache, RepeatedInfeasibleProbesAreMemoized) {
  const auto engine = api::Engine::create();
  const auto first = engine->plan(infeasible_request());
  ASSERT_FALSE(first.has_value());
  EXPECT_FALSE(first.error().from_negative_cache);
  EXPECT_EQ(engine->cache_stats().negative_insertions, 1u);

  const auto second = engine->plan(infeasible_request());
  ASSERT_FALSE(second.has_value());
  EXPECT_TRUE(second.error().from_negative_cache);
  EXPECT_EQ(engine->cache_stats().negative_hits, 1u);
  // The memoized diagnosis is the original one, structurally.
  EXPECT_EQ(second.error().code, first.error().code);
  EXPECT_EQ(second.error().message, first.error().message);
  EXPECT_EQ(second.error().deficits.size(), first.error().deficits.size());
}

TEST(NegativeCache, UnprobedEntryCannotAnswerAProbingRequest) {
  const auto engine = api::Engine::create();
  api::PlanRequest quick = infeasible_request();
  ASSERT_FALSE(engine->plan(quick).has_value());  // memoized, unprobed

  // Same RequestKey (the probe knob is excluded from the fingerprint),
  // but this caller wants the bisection: the unprobed entry must miss and
  // the re-diagnosis (with probes) overwrite it.
  api::PlanRequest probing = infeasible_request();
  probing.probe_feasible_batch = true;
  const auto probed = engine->plan(probing);
  ASSERT_FALSE(probed.has_value());
  EXPECT_FALSE(probed.error().from_negative_cache);
  EXPECT_GE(probed.error().nearest_feasible_batch, 1);

  // Now both probing and non-probing callers are answered memoized.
  const auto third = engine->plan(probing);
  ASSERT_FALSE(third.has_value());
  EXPECT_TRUE(third.error().from_negative_cache);
  EXPECT_EQ(third.error().nearest_feasible_batch,
            probed.error().nearest_feasible_batch);
  const auto fourth = engine->plan(quick);
  ASSERT_FALSE(fourth.has_value());
  EXPECT_TRUE(fourth.error().from_negative_cache);
}

TEST(PlanCacheEntry, DiagnosisCopiesAreMarkedAndProbeGated) {
  const auto engine = api::Engine::create();
  const api::PlanRequest quick = infeasible_request();
  const auto first = engine->plan(quick);  // memoized, unprobed
  ASSERT_FALSE(first.has_value());
  EXPECT_FALSE(first.error().from_negative_cache);

  const RequestKey key = engine->key_for(quick);
  const auto copy = engine->try_cached(key, /*probe_feasible_batch=*/false);
  ASSERT_TRUE(copy.has_value());
  ASSERT_FALSE(copy->has_value());
  EXPECT_TRUE(copy->error().from_negative_cache);
  EXPECT_EQ(copy->error().message, first.error().message);
  const auto entry = engine->lookup_cached(key, false);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->outcome().error().from_negative_cache);
  // An unprobed diagnosis cannot answer a caller that wants the
  // bisection, through either door.
  EXPECT_FALSE(
      engine->try_cached(key, /*probe_feasible_batch=*/true).has_value());
  EXPECT_EQ(engine->lookup_cached(key, true), nullptr);
  EXPECT_EQ(engine->cache_stats().negative_hits, 2u);
}

// ---------------------------------------------------------------------------
// Opt-1/Opt-2 search memoization (solver-side)
// ---------------------------------------------------------------------------

TEST(SearchMemo, ResimulationsDropBelowCandidateCount) {
  // Pre-memoization every candidate was one full engine replay, i.e.
  // simulations == candidates. The memo must remove some replays on the
  // standard ResNet-50 search (annealer revisits + Opt-2 greedy rounds)
  // without changing the chosen plan — on one walk and on the 4-worker
  // portfolio, whose workers share the memo.
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    api::PlanRequest request = resnet_request(512, /*anneal=*/30);
    request.planner.anneal_workers = workers;
    const api::Plan plan = api::Engine::create()->plan_or_throw(request);
    const core::SearchStats& s = plan.search_stats;
    EXPECT_EQ(s.anneal_workers, workers);
    EXPECT_GT(s.candidates, 0);
    EXPECT_GT(s.memo_hits, 0);
    EXPECT_LT(s.simulations, s.candidates);
    // Every candidate evaluation request was either a lean replay or a
    // pure memo serve — exact partition, no double counting; the full
    // replay that materializes a new incumbent is not a candidate.
    EXPECT_EQ(s.simulations + s.memo_hits, s.candidates);
    // The per-block cost memo fires heavily: candidate blockings share
    // almost all their block extents.
    EXPECT_GT(s.block_cost_hits, 0);
    EXPECT_LT(s.block_cost_hits, s.block_cost_lookups);
  }
}

TEST(SearchMemo, MemoizedSearchPlansIdenticallyToUncachedSessions) {
  // The memo is an exact shortcut: two independent full searches (no
  // plan-cache involvement) still agree to the byte.
  const auto a =
      api::Engine::create({no_cache()})->plan_or_throw(resnet_request(512, 30));
  const auto b =
      api::Engine::create({no_cache()})->plan_or_throw(resnet_request(512, 30));
  EXPECT_EQ(a.to_json(), b.to_json());
}

}  // namespace
}  // namespace karma::cache
