// Memoization table for expensive search objectives (DESIGN.md §10).
//
// The Opt-1/Opt-2 searches in src/core evaluate the same candidate more
// than once: the annealer's random walk revisits boundary vectors, the
// post-anneal materialization re-evaluates the annealer's best state, and
// each Opt-2 greedy round re-tries the flips rejected after its last
// accepted one. SharedEvalMemo caches the objective value per canonical
// candidate key so a revisit costs a hash lookup, and counts lookups/hits
// so the win is measurable (core::SearchStats, bench_fig_plan_cache).
// Each KarmaPlanner search creates its own tables and drops them when it
// returns, so no state outlives one plan() call.
//
// The planner memoizes only the scalar objective (the makespan), not the
// full evaluation artifact: it materializes a full result only for a
// candidate, memoized or not, whose makespan beats the incumbent.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace karma::solver {

/// The portfolio annealing workers (DESIGN.md §14) share one table: it is
/// split across `Shards` independently locked maps (key-hash modulo
/// shard), so N workers hammering the memo contend only when their keys
/// collide on a shard — lock hold time is one hash-map operation. Each
/// shard counts its own lookups and hits under the lock `find` already
/// holds, and shards sit on their own cache lines, so workers on different
/// shards share no written line; lookups()/hits() sum the shards.
///
/// Determinism note: two workers can race to evaluate the same key and
/// both store. That is safe exactly because every value in these memos is
/// a deterministic function of its key (the engine replay is
/// deterministic), so whichever store lands first, the table holds the
/// same value — timing changes compute-vs-hit accounting, never values.
/// `store` keeps the first entry (emplace) to make that explicit.
template <typename Key, typename Value, std::size_t Shards = 16>
class SharedEvalMemo {
 public:
  std::optional<Value> find(const Key& key) {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    ++s.lookups;
    const auto it = s.table.find(key);
    if (it == s.table.end()) return std::nullopt;
    ++s.hits;
    return it->second;
  }

  void store(const Key& key, Value value) {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    s.table.emplace(key, std::move(value));
  }

  std::int64_t lookups() const { return total(&Shard::lookups); }
  std::int64_t hits() const { return total(&Shard::hits); }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Value> table;
    std::int64_t lookups = 0;
    std::int64_t hits = 0;
  };
  Shard& shard_of(const Key& key) {
    return shards_[std::hash<Key>{}(key) % Shards];
  }
  std::int64_t total(std::int64_t Shard::*counter) const {
    std::int64_t sum = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      sum += s.*counter;
    }
    return sum;
  }

  std::array<Shard, Shards> shards_;
};

}  // namespace karma::solver
