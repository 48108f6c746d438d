// Tier-aware capacity accountant (DESIGN.md §7, §9).
//
// The engine's single free-memory counter generalizes to one ledger per
// tier: charges reserve bytes on a tier, releases return them, and the
// high-water mark per tier is what plans are accepted or rejected on.
// The accountant is pure bookkeeping — *when* charges happen is the
// engine's (or executor's) business — but it is the one place that knows
// whether a byte fits, so every spill decision funnels through it.
//
// Residency classes (DESIGN.md §9): a byte on an offload tier is not just
// "spilled" — it has a lifetime determined by *what* it is, and the ledger
// tracks each class separately so mispaired traffic is a machine-checked
// error instead of silent drift:
//
//   kActivation   paired swap-out -> swap-in; lifetime is one forward ->
//                 backward window. Net zero per iteration.
//   kWeightShard  pinned master copy (the weight-swapping regime keeps the
//                 authoritative weights in host DRAM). Charged once at plan
//                 start, released never; streaming the shard to the device
//                 does NOT release host bytes.
//   kGradient     paired gradient-out -> CPU/device update; lifetime is
//                 one backward(b) -> update(b) window. Net zero per
//                 iteration once every update consumed its gradients.
//   kOptimizerState
//                 pinned like kWeightShard (master weights + moments for
//                 the CPU update), pre-charged at admission time.
//
// Per-class underflow (releasing gradient bytes that were never charged,
// or more of them than are outstanding) throws std::logic_error: that is
// the lifetime-aware pairing check the distributed pipeline relies on.
#pragma once

#include <string>

#include "src/tier/hierarchy.h"

namespace karma::tier {

class TierAccountant {
 public:
  /// Copies the hierarchy's tier specs into the accountant itself, so
  /// building one allocates nothing and the hierarchy need not outlive it.
  explicit TierAccountant(const StorageHierarchy& hierarchy);

  /// True when `bytes` more would still fit on `t`. Tiers absent from the
  /// hierarchy never fit (charging them is a routing bug upstream).
  bool fits(Tier t, Bytes bytes) const;

  /// Reserves `bytes` of class `r` on `t`; throws std::runtime_error with
  /// a ledger dump when the tier would overflow (callers that want to wait
  /// instead of fail must check fits() first).
  void charge(Tier t, Residency r, Bytes bytes);
  void charge(Tier t, Bytes bytes) { charge(t, Residency::kActivation, bytes); }

  /// Returns `bytes` of class `r` to `t`; throws std::logic_error when the
  /// class has fewer outstanding bytes than released (mispaired lifetime).
  void release(Tier t, Residency r, Bytes bytes);
  void release(Tier t, Bytes bytes) {
    release(t, Residency::kActivation, bytes);
  }

  Bytes used(Tier t) const;             ///< all classes
  Bytes used(Tier t, Residency r) const;
  Bytes free_bytes(Tier t) const;
  Bytes peak(Tier t) const;

  /// The spec of tier `t`; throws std::out_of_range when it is absent.
  const TierSpec& spec(Tier t) const;

  /// One-line ledger state with a per-class breakdown for occupied tiers,
  /// e.g. "ledger: device 800B/1000B host 700B/2000B (act 500B grad 200B)",
  /// embedded in engine deadlock reports.
  std::string dump() const;

 private:
  /// The spec of `t`, or nullptr when the hierarchy has no such tier.
  const TierSpec* find(Tier t) const;

  /// Indexed by tier; a hierarchy orders its tiers outward, so index order
  /// is hierarchy order.
  TierSpec specs_[kNumTiers] = {};
  bool present_[kNumTiers] = {};
  Bytes used_[kNumTiers][kNumResidencyClasses] = {};
  Bytes peak_[kNumTiers] = {0, 0, 0};
};

}  // namespace karma::tier
