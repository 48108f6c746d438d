#include "src/cache/plan_cache.h"

#include <sstream>
#include <utility>

#include "src/api/request_io.h"

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

const std::string& CachedOutcome::json() const {
  std::call_once(serialized_, [this] {
    json_ = outcome_.has_value() ? outcome_->to_json()
                                 : api::error_to_json(outcome_.error());
  });
  return json_;
}

PlanCache::PlanCache(Options options) : options_(std::move(options)) {
  if (!options_.dir.empty())
    disk_ = std::make_unique<DiskStore>(options_.dir);
}

bool PlanCache::put_locked(Entry entry) {
  const auto capacity = static_cast<std::uint64_t>(
      options_.memory_capacity_bytes > 0 ? options_.memory_capacity_bytes : 0);
  if (entry.bytes > capacity) return false;  // disabled, or alone too big
  stats_.resident_bytes += entry.bytes;
  const auto it = index_.find(entry.key);
  if (it != index_.end()) {
    // Refresh: move to the hot end, replace the outcome and its weight.
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.resident_bytes -= lru_.begin()->bytes;
    lru_.front() = std::move(entry);
  } else {
    lru_.push_front(std::move(entry));
    index_.emplace(lru_.front().key, lru_.begin());
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

PlanCache::Handle PlanCache::lookup(const RequestKey& key, bool want_probe,
                                    bool quiet) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    // An unprobed diagnosis cannot answer a caller who asked for the
    // feasible-batch bisection: it misses like an absent entry.
    if (it != index_.end() && (it->second->handle->outcome().has_value() ||
                               it->second->probed || !want_probe)) {
      lru_.splice(lru_.begin(), lru_, it->second);
      const Handle& hit = lru_.front().handle;
      ++(hit->outcome().has_value() ? stats_.memory_hits
                                    : stats_.negative_hits);
      return hit;
    }
  }
  // Disk I/O and JSON revalidation run outside the lock so concurrent
  // memory hits never wait on a slow load. Two threads may race the same
  // load; both parse identical bytes, so the duplicate work is benign.
  DiskStore::LoadResult loaded;
  if (disk_) loaded = disk_->load(key);
  std::lock_guard<std::mutex> lock(mu_);
  if (loaded.corrupt && !quiet) ++stats_.corrupt_entries;
  if (!loaded.plan) {
    if (!quiet) ++stats_.misses;
    return nullptr;
  }
  ++stats_.disk_hits;
  // Promote so repeated lookups skip the parse. Not counted as an
  // insertion: nothing new entered the cache.
  auto hit = std::make_shared<const CachedOutcome>(std::move(*loaded.plan));
  put_locked(Entry{key, hit, false, loaded.serialized_bytes});
  return hit;
}

void PlanCache::insert(const RequestKey& key, Outcome outcome, bool probed) {
  if (!outcome.has_value()) {
    // Interrupted outcomes describe one caller's patience, not the
    // request, and internal errors describe a bug: memoizing them would
    // poison later (uncancelled) callers.
    const api::PlanErrorCode code = outcome.error().code;
    if (code == api::PlanErrorCode::kCancelled ||
        code == api::PlanErrorCode::kDeadline ||
        code == api::PlanErrorCode::kInternalError)
      return;
  }
  // One serialization weighs the entry and feeds the disk write. Runs
  // outside the lock (it can be milliseconds on deep plans). The entry
  // does not keep it: only a socket hit's json() pays for kept bytes
  // (DESIGN.md §10).
  const bool plan = outcome.has_value();
  const std::string json =
      plan ? outcome->to_json() : api::error_to_json(outcome.error());
  // Every hit reads a diagnosis as memoized; marking it once here keeps
  // the handle immutable. The weight stays the inserted serialization's.
  if (!plan) outcome.error().from_negative_cache = true;
  auto entry = std::make_shared<const CachedOutcome>(std::move(outcome));
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Counts entries actually accepted into the memory level; a
    // disk-only cache (memory_capacity_bytes 0) reports disk_writes
    // instead.
    if (put_locked(Entry{key, std::move(entry), probed, json.size()}))
      ++(plan ? stats_.insertions : stats_.negative_insertions);
  }
  // The atomic write happens outside the lock (DiskStore keeps its own
  // state race-free); only the counter update re-locks.
  if (plan && disk_ && disk_->store_serialized(key, json)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_writes;
  }
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  stats_.resident_bytes = 0;
}

CacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace karma::cache
