#include "src/cache/plan_cache.h"

#include <sstream>

namespace karma::cache {

std::string CacheStats::describe() const {
  std::ostringstream os;
  os << "memory_hits=" << memory_hits << " disk_hits=" << disk_hits
     << " misses=" << misses << " insertions=" << insertions
     << " evictions=" << evictions << " disk_writes=" << disk_writes
     << " corrupt_entries=" << corrupt_entries
     << " resident_bytes=" << resident_bytes
     << " negative_hits=" << negative_hits
     << " negative_insertions=" << negative_insertions;
  return os.str();
}

PlanCache::PlanCache(Options options) : options_(std::move(options)) {
  if (!options_.dir.empty())
    disk_ = std::make_unique<DiskStore>(options_.dir);
}

bool PlanCache::put_locked(const RequestKey& key, const api::Plan& plan,
                           std::uint64_t bytes) {
  const auto capacity = static_cast<std::uint64_t>(
      options_.memory_capacity_bytes > 0 ? options_.memory_capacity_bytes : 0);
  if (capacity == 0) return false;
  if (bytes > capacity) return false;  // artifact alone exceeds the level
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Refresh: move to the hot end, replace the payload and its weight.
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.resident_bytes -= lru_.begin()->bytes;
    stats_.resident_bytes += bytes;
    lru_.begin()->plan = plan;
    lru_.begin()->bytes = bytes;
  } else {
    lru_.push_front(Entry{key, plan, bytes});
    index_.emplace(key, lru_.begin());
    stats_.resident_bytes += bytes;
  }
  // Evict cold entries until the bytes fit; the refreshed/new entry sits
  // at the hot end and is never its own victim.
  while (stats_.resident_bytes > capacity && lru_.size() > 1) {
    stats_.resident_bytes -= lru_.back().bytes;
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return true;
}

std::optional<api::Plan> PlanCache::lookup(const RequestKey& key,
                                           bool quiet) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.memory_hits;
      lru_.splice(lru_.begin(), lru_, it->second);
      return lru_.begin()->plan;
    }
  }
  // Disk I/O and JSON revalidation run outside the lock so concurrent
  // memory hits never wait on a slow load. Two threads may race the same
  // load; both parse identical bytes, so the duplicate work is benign.
  if (disk_) {
    DiskStore::LoadResult loaded = disk_->load(key);
    std::lock_guard<std::mutex> lock(mu_);
    if (loaded.corrupt && !quiet) ++stats_.corrupt_entries;
    if (loaded.plan) {
      ++stats_.disk_hits;
      // Promote so repeated lookups skip the parse. Not counted as an
      // insertion: nothing new entered the cache.
      put_locked(key, *loaded.plan, loaded.serialized_bytes);
      return std::move(loaded.plan);
    }
    if (!quiet) ++stats_.misses;
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!quiet) ++stats_.misses;
  return std::nullopt;
}

void PlanCache::insert(const RequestKey& key, const api::Plan& plan) {
  // One serialization feeds both levels: the LRU's byte accounting and
  // the disk write. Runs outside the lock (it can be milliseconds on
  // deep plans).
  const std::string json = plan.to_json();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // insertions counts entries actually accepted into the memory level;
    // a disk-only cache (memory_capacity_bytes 0) reports disk_writes
    // instead.
    if (put_locked(key, plan, json.size())) ++stats_.insertions;
  }
  // The atomic write happens outside the lock (DiskStore keeps its own
  // state race-free); only the counter update re-locks.
  if (disk_ && disk_->store_serialized(key, json)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_writes;
  }
}

std::optional<api::PlanError> PlanCache::lookup_negative(const RequestKey& key,
                                                         bool want_probe) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = negative_index_.find(key);
  if (it == negative_index_.end()) return std::nullopt;
  // An unprobed diagnosis cannot answer a caller who asked for the
  // feasible-batch bisection; the re-diagnosis will overwrite the entry
  // with the richer result.
  if (want_probe && !it->second->probed) return std::nullopt;
  ++stats_.negative_hits;
  negative_lru_.splice(negative_lru_.begin(), negative_lru_, it->second);
  api::PlanError error = negative_lru_.begin()->error;
  error.from_negative_cache = true;
  return error;
}

void PlanCache::insert_negative(const RequestKey& key,
                                const api::PlanError& error, bool probed) {
  if (options_.negative_capacity == 0) return;
  // Interrupted outcomes describe one caller's patience, not the request
  // (and internal errors describe a bug): memoizing them would poison
  // later (uncancelled) callers.
  if (error.code == api::PlanErrorCode::kCancelled ||
      error.code == api::PlanErrorCode::kDeadline ||
      error.code == api::PlanErrorCode::kInternalError)
    return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = negative_index_.find(key);
  if (it != negative_index_.end()) {
    negative_lru_.splice(negative_lru_.begin(), negative_lru_, it->second);
    negative_lru_.begin()->error = error;
    negative_lru_.begin()->probed = probed;
    return;
  }
  negative_lru_.push_front(NegativeEntry{key, error, probed});
  negative_index_.emplace(key, negative_lru_.begin());
  ++stats_.negative_insertions;
  while (negative_lru_.size() > options_.negative_capacity) {
    negative_index_.erase(negative_lru_.back().key);
    negative_lru_.pop_back();
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  negative_lru_.clear();
  negative_index_.clear();
  stats_.resident_bytes = 0;
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace karma::cache
