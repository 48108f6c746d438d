// Persistent plan store: the on-disk level of the plan cache, shared
// across processes (DESIGN.md §10, §12).
//
// One entry per request key, named `<key-hex>.plan.json`, holding exactly
// the v2 plan JSON artifact (plan_io) — the same bytes Engine::plan would
// hand back from Plan::to_json(), so a cache entry doubles as a reviewable,
// replayable artifact and any schema drift invalidates it through the
// version check in plan_from_json.
//
// Cross-process discipline (PR 6 hardening):
//   - PUBLISH: writes go to a unique temp file in the same directory
//     (write + fsync the data), then rename() into place — atomic on
//     POSIX, so readers never observe a half-written entry — then fsync
//     the parent directory so a crash right after the rename cannot roll
//     the dirent back to an absent or torn entry. Publishes serialize on
//     a store-wide advisory flock (`.karma-store.lock`).
//   - READ: lock-free. Entries are immutable once published (a republish
//     of the same key renames an identical artifact over it), so readers
//     just open + mmap: the open fd pins the old inode even if a rename
//     replaces the dirent mid-read, and the artifact parses straight out
//     of the mapping (plan_from_json takes a view) with no copy and no
//     lock held. Corruption-tolerant: truncated, garbled, wrong-version,
//     or structurally invalid entries are reported corrupt and treated by
//     the cache as a miss — never a crash, never a wrong plan.
//   - SINGLE-FLIGHT: `<key-hex>.claim` files extend the Engine's
//     in-process single-flight across processes. A would-be searcher
//     try_claim()s the key: the winner (leader) holds an exclusive flock
//     on the claim file for the whole search and publishes the artifact
//     before releasing; everyone else wait_for_entry()s — deadline-aware
//     exponential backoff polling for the entry to appear OR the claim to
//     die (leader crashed: the kernel drops its flock; leader finished
//     without an artifact: it unlinked the claim). Either way exactly one
//     search per key runs fleet-wide while the leader lives.
//   - I/O errors on store are swallowed into a `false` return: a broken
//     cache directory degrades the cache, not planning.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/api/session.h"
#include "src/cache/request_key.h"
#include "src/util/cancel.h"

namespace karma::cache {

class DiskStore {
 public:
  explicit DiskStore(std::string dir) : dir_(std::move(dir)) {}

  const std::string& dir() const { return dir_; }

  /// Path the entry for `key` lives at (whether or not it exists).
  std::string entry_path(const RequestKey& key) const;

  /// Path of the key's single-flight claim file.
  std::string claim_path(const RequestKey& key) const;

  struct LoadResult {
    std::optional<api::Plan> plan;  ///< set on a valid hit
    bool corrupt = false;           ///< entry existed but failed validation
    /// Serialized artifact size of a valid hit — what the entry weighs in
    /// the memory level's byte-counted LRU when promoted.
    std::size_t serialized_bytes = 0;
  };

  /// Loads and fully validates the entry for `key`. An absent entry is a
  /// clean miss ({nullopt, false}); an unreadable one is corrupt.
  /// Lock-free (see READ above); safe against concurrent publishes.
  LoadResult load(const RequestKey& key) const;

  /// Atomically and durably publishes the entry (write temp + fsync +
  /// rename + fsync dir, under the store-wide write lock). Creates the
  /// directory on first use. Returns false on any I/O failure.
  bool store(const RequestKey& key, const api::Plan& plan);

  /// store() with the serialization already done (`json` must be the
  /// plan's exact to_json() bytes) — lets PlanCache serialize once for
  /// both the byte-counted LRU and the disk write.
  bool store_serialized(const RequestKey& key, const std::string& json);

  /// RAII fleet-wide search leadership for one key. Holding a Claim means
  /// every other process's try_claim for the key fails and its
  /// wait_for_entry blocks. release() (or destruction) unlinks the claim
  /// file BEFORE closing the locked fd, so a waiter can never observe the
  /// gap where the file exists but nobody holds the lock as anything but
  /// "leader gone". Movable, not copyable.
  class Claim {
   public:
    Claim() = default;
    Claim(Claim&& o) noexcept : fd_(o.fd_), path_(std::move(o.path_)) {
      o.fd_ = -1;
    }
    Claim& operator=(Claim&& o) noexcept;
    ~Claim() { release(); }
    Claim(const Claim&) = delete;
    Claim& operator=(const Claim&) = delete;

    bool held() const { return fd_ >= 0; }
    void release();

   private:
    friend class DiskStore;
    Claim(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
    int fd_ = -1;
    std::string path_;
  };

  /// Attempts to become the fleet-wide search leader for `key`.
  /// Non-blocking: nullopt = another live process holds the claim (wait
  /// for it) or claiming failed for I/O reasons (caller degrades to
  /// searching without fleet coordination — correctness never depends on
  /// the claim, only dedup does).
  std::optional<Claim> try_claim(const RequestKey& key);

  enum class WaitOutcome {
    kEntry,        ///< the entry exists now — re-lookup will hit
    kReleased,     ///< leader gone without an artifact (crashed, search
                   ///< infeasible/cancelled) — caller should retry claim
    kInterrupted,  ///< the caller's own CancelToken tripped
  };

  /// Blocks (exponential-backoff polling, 0.2ms..10ms) until the entry
  /// for `key` appears, the claim dies, or `control` trips. Pass an inert
  /// token to wait unbounded.
  WaitOutcome wait_for_entry(const RequestKey& key,
                             const CancelToken& control) const;

  /// Claim-file counters (process-local), for stats surfaces and tests.
  struct ClaimStats {
    std::uint64_t claims_won = 0;    ///< try_claim successes (led a search)
    std::uint64_t claims_lost = 0;   ///< try_claim found a live leader
    std::uint64_t waits_entry = 0;   ///< waits resolved by a published entry
    std::uint64_t waits_released = 0;///< waits resolved by a dead claim
  };
  ClaimStats claim_stats() const;

 private:
  bool ensure_dir();

  std::string dir_;
  /// Uniquifies temp names within a store; atomic so concurrent store()
  /// calls (PlanCache writes outside its lock) never share a temp file.
  std::atomic<std::uint64_t> write_seq_{0};
  std::atomic<std::uint64_t> claims_won_{0};
  std::atomic<std::uint64_t> claims_lost_{0};
  // mutable: waits are counted from the logically-const wait path.
  mutable std::atomic<std::uint64_t> waits_entry_{0};
  mutable std::atomic<std::uint64_t> waits_released_{0};
};

}  // namespace karma::cache
