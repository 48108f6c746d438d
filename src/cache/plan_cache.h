// karma::cache::PlanCache — the two-level planning cache (DESIGN.md §10,
// §11).
//
// Level 1 is an in-memory, thread-safe LRU of Plan artifacts keyed by
// RequestKey and capacity-bounded by RESIDENT BYTES — entries are whole
// serialized plan artifacts, so capacity counts what they actually weigh
// (their to_json size), not how many there are. Level 2 is an optional
// persistent DiskStore sharing the same keys. Lookups consult memory
// first, then disk (a disk hit is promoted into memory so repeats stay
// cheap); inserts populate both. Every outcome is counted: the stats are
// how benches, examples, and CI prove cold-vs-warm behavior.
//
// Alongside the positive artifacts, the cache memoizes NEGATIVE results
// (DESIGN.md §11): an infeasible request's structured PlanError, keyed by
// the same RequestKey, so repeated probes of a hopeless configuration are
// answered without re-running the search + diagnosis. Negative entries
// are memory-only (small, cheap to recompute, and not artifacts worth
// persisting), count-capped, and never store interrupted outcomes
// (kCancelled/kDeadline are properties of one caller's patience, not of
// the request).
//
// The cache never invents anything: entries are only what the planning
// service produced, disk entries revalidate through the full
// plan_from_json gate on load, and a corrupt entry degrades to a miss —
// planning correctness cannot depend on cache health.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/api/session.h"
#include "src/cache/disk_store.h"
#include "src/cache/request_key.h"

namespace karma::cache {

struct CacheStats {
  std::uint64_t memory_hits = 0;     ///< served from the in-memory LRU
  std::uint64_t disk_hits = 0;       ///< served (and revalidated) from disk
  std::uint64_t misses = 0;          ///< neither level had a valid entry
  std::uint64_t insertions = 0;      ///< new entries accepted into memory
  std::uint64_t evictions = 0;       ///< LRU entries displaced by capacity
  std::uint64_t disk_writes = 0;     ///< entries atomically persisted
  std::uint64_t corrupt_entries = 0; ///< disk entries that failed validation
  /// Serialized bytes currently resident in the memory level — the gauge
  /// the byte-counted capacity bounds (<= Options::memory_capacity_bytes).
  std::uint64_t resident_bytes = 0;
  std::uint64_t negative_hits = 0;       ///< infeasibility served memoized
  std::uint64_t negative_insertions = 0; ///< PlanErrors memoized

  std::uint64_t hits() const { return memory_hits + disk_hits; }
  std::uint64_t lookups() const { return hits() + misses; }

  /// One-line render for logs and examples, e.g.
  /// "memory_hits=1 disk_hits=0 misses=2 ...".
  std::string describe() const;
};

class PlanCache {
 public:
  struct Options {
    /// Max serialized bytes resident in the memory level; an entry's
    /// weight is its to_json() size. 0 disables the memory level
    /// (disk-only); a single artifact larger than the whole capacity is
    /// not admitted.
    Bytes memory_capacity_bytes = 256ll * 1024 * 1024;
    /// Persistent store directory; empty = memory-only cache.
    std::string dir;
    /// Max memoized PlanErrors (count-capped: negatives are small).
    std::size_t negative_capacity = 256;
  };

  PlanCache() : PlanCache(Options{}) {}
  explicit PlanCache(Options options);

  /// Memory-then-disk lookup. A disk hit revalidates the artifact and
  /// promotes it into the LRU. Thread-safe. `quiet` suppresses the miss /
  /// corruption counters (hits always count — they served a caller): the
  /// single-flight leader re-checks the cache right before searching, and
  /// that re-check must not double-count the miss its own prepare already
  /// recorded.
  std::optional<api::Plan> lookup(const RequestKey& key, bool quiet = false);

  /// Inserts into memory and (when configured) persists to disk.
  /// Thread-safe.
  void insert(const RequestKey& key, const api::Plan& plan);

  /// Memoized infeasibility for `key`, marked from_negative_cache. A hit
  /// requires the entry to satisfy the caller: an entry diagnosed without
  /// the feasible-batch bisection cannot answer a request that wants one
  /// (`want_probe`), and misses instead.
  std::optional<api::PlanError> lookup_negative(const RequestKey& key,
                                                bool want_probe);

  /// Memoizes a diagnosis (`probed` = it includes bisection results).
  /// No-op for interrupted outcomes (kCancelled/kDeadline) — those are
  /// never request properties. Thread-safe.
  void insert_negative(const RequestKey& key, const api::PlanError& error,
                       bool probed);

  /// Drops every in-memory entry, positive and negative (disk entries
  /// survive); stats persist except the resident_bytes gauge.
  void clear();

  CacheStats stats() const;
  const Options& options() const { return options_; }

  /// The persistent level, null for memory-only caches. The Engine uses
  /// it directly for cross-process single-flight (claim files) — claims
  /// coordinate searches, not cache content, so they live beside the
  /// lookup/insert surface rather than inside it.
  DiskStore* disk() const { return disk_.get(); }

 private:
  struct Entry {
    RequestKey key;
    api::Plan plan;
    std::uint64_t bytes = 0;  ///< serialized (to_json) size
  };
  using LruList = std::list<Entry>;
  struct NegativeEntry {
    RequestKey key;
    api::PlanError error;
    bool probed = false;
  };
  using NegativeList = std::list<NegativeEntry>;

  /// Inserts or refreshes `key` in the LRU, evicting from the cold end
  /// until the byte capacity holds. Returns whether the entry is resident
  /// afterwards (false when the memory level is disabled or the artifact
  /// alone exceeds capacity). Caller holds mu_.
  bool put_locked(const RequestKey& key, const api::Plan& plan,
                  std::uint64_t bytes);

  Options options_;
  std::unique_ptr<DiskStore> disk_;  ///< null when dir is empty

  mutable std::mutex mu_;
  LruList lru_;  ///< most-recently-used at the front
  std::unordered_map<RequestKey, LruList::iterator, RequestKeyHash> index_;
  NegativeList negative_lru_;
  std::unordered_map<RequestKey, NegativeList::iterator, RequestKeyHash>
      negative_index_;
  CacheStats stats_;
};

}  // namespace karma::cache
