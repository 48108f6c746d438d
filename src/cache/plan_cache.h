// karma::cache::PlanCache — the two-level planning cache (DESIGN.md §10,
// §11).
//
// The cache memoizes OUTCOMES: for a RequestKey, either the Plan artifact
// the planner produced or the structured PlanError its capacity analysis
// diagnosed (nothing fits). Level 1 is one in-memory, thread-safe LRU of
// both kinds, capacity-bounded by RESIDENT BYTES: every entry weighs its
// serialized size (a plan its to_json(), a diagnosis its error_to_json()),
// so capacity counts what entries actually weigh, not how many there are.
// An entry is an immutable shared CachedOutcome: a lookup hands out the
// handle without copying the outcome under the lock, and the handle
// serializes its outcome at most once, on the first json() call (the
// socket hit path's), never at insert.
// Level 2 is an optional persistent DiskStore of plans sharing the same
// keys; diagnoses stay in memory (cheap to recompute, not artifacts worth
// persisting). Lookups consult memory first, then disk (a disk hit is
// promoted into memory so repeats stay cheap); inserts populate both.
// Every outcome is counted: the stats are how benches, examples, and CI
// prove cold-vs-warm behavior.
//
// The cache never invents anything: entries are only what the planning
// service produced, interrupted or crashed outcomes (kCancelled,
// kDeadline, kInternalError) are never memoized, disk entries revalidate
// through the full plan_from_json gate on load, and a corrupt entry
// degrades to a miss — planning correctness cannot depend on cache health.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/api/session.h"
#include "src/cache/disk_store.h"
#include "src/cache/request_key.h"

namespace karma::cache {

struct CacheStats {
  std::uint64_t memory_hits = 0;     ///< plans served from the memory LRU
  std::uint64_t disk_hits = 0;       ///< served (and revalidated) from disk
  std::uint64_t misses = 0;          ///< no level had an eligible entry
  std::uint64_t insertions = 0;      ///< plans accepted into memory
  std::uint64_t evictions = 0;       ///< LRU entries displaced by capacity
  std::uint64_t disk_writes = 0;     ///< entries atomically persisted
  std::uint64_t corrupt_entries = 0; ///< disk entries that failed validation
  /// Serialized bytes currently resident in the memory level, plans and
  /// diagnoses alike — the gauge the byte-counted capacity bounds
  /// (<= Options::memory_capacity_bytes).
  std::uint64_t resident_bytes = 0;
  std::uint64_t negative_hits = 0;       ///< infeasibility served memoized
  std::uint64_t negative_insertions = 0; ///< diagnoses accepted into memory

  std::uint64_t hits() const { return memory_hits + disk_hits; }
  std::uint64_t lookups() const { return hits() + misses; }

  /// One-line render for logs and examples, e.g.
  /// "memory_hits=1 disk_hits=0 misses=2 ...".
  std::string describe() const;
};

/// One cached outcome as every hit reads it: immutable once cached, a
/// diagnosis marked from_negative_cache. Shared by the LRU and every
/// caller holding it, so eviction or a re-insert only drops the cache's
/// reference.
class CachedOutcome {
 public:
  using Outcome = api::Expected<api::Plan, api::PlanError>;

  explicit CachedOutcome(Outcome&& outcome) : outcome_(std::move(outcome)) {}

  const Outcome& outcome() const { return outcome_; }

  /// The outcome's wire bytes: a plan's to_json(), a diagnosis's
  /// error_to_json(). Made by the first call and kept for the handle's
  /// life (thread-safe), so an entry that hits serve is serialized once
  /// and one that only in-process hits read is never serialized here.
  const std::string& json() const;

 private:
  const Outcome outcome_;
  mutable std::once_flag serialized_;
  mutable std::string json_;
};

class PlanCache {
 public:
  using Outcome = CachedOutcome::Outcome;
  using Handle = std::shared_ptr<const CachedOutcome>;

  struct Options {
    /// Max serialized bytes resident in the memory level. 0 disables the
    /// memory level (disk-only, or with no dir a cache that remembers
    /// nothing); an entry larger than the whole capacity is not admitted.
    Bytes memory_capacity_bytes = 256ll * 1024 * 1024;
    /// Persistent plan store directory; empty = memory-only cache.
    std::string dir;
  };

  PlanCache() : PlanCache(Options{}) {}
  explicit PlanCache(Options options);

  /// Memory-then-disk lookup: the entry's handle, null on a miss. A memory
  /// hit only splices the LRU and copies the handle under the lock. A
  /// diagnosis comes back marked from_negative_cache. `want_probe`: the caller wants the
  /// feasible-batch bisection, so a diagnosis memoized without it misses
  /// (the re-diagnosis overwrites it with the richer one). A disk hit
  /// revalidates the artifact and promotes it into the LRU. `quiet`
  /// suppresses the miss / corruption counters (hits always count — they
  /// served a caller): the single-flight leader re-checks the cache right
  /// before searching, and that re-check must not double-count the miss
  /// its own prepare already recorded. Thread-safe.
  Handle lookup(const RequestKey& key, bool want_probe = false,
                bool quiet = false);

  /// Memoizes `outcome`: a plan into memory and (when configured) disk, a
  /// diagnosis into memory only, `probed` = it includes the bisection's
  /// results. The entry is weighed by one serialization that feeds the
  /// disk write and is then dropped: it keeps no bytes. No-op for
  /// interrupted and internal-error outcomes — those describe one
  /// caller's patience or a bug, never the request. Thread-safe.
  void insert(const RequestKey& key, Outcome outcome, bool probed = false);

  /// Drops every in-memory entry (disk entries survive); stats persist
  /// except the resident_bytes gauge.
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
    Handle handle;
    bool probed = false;      ///< diagnosis carries bisection results
    std::uint64_t bytes = 0;  ///< serialized size
  };
  using LruList = std::list<Entry>;

  /// Inserts or refreshes `entry` in the LRU, evicting from the cold end
  /// until the byte capacity holds. Returns whether the entry is resident
  /// afterwards (false when the memory level is disabled or the entry
  /// alone exceeds capacity). Caller holds mu_.
  bool put_locked(Entry entry);

  Options options_;
  std::unique_ptr<DiskStore> disk_;  ///< null when dir is empty

  mutable std::mutex mu_;
  LruList lru_;  ///< most-recently-used at the front
  std::unordered_map<RequestKey, LruList::iterator, RequestKeyHash> index_;
  CacheStats stats_;
};

}  // namespace karma::cache
