#include "src/tier/accountant.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/util/infeasible.h"

namespace karma::tier {

const char* residency_name(Residency r) {
  switch (r) {
    case Residency::kActivation: return "act";
    case Residency::kWeightShard: return "shard";
    case Residency::kGradient: return "grad";
    case Residency::kOptimizerState: return "opt";
  }
  return "?";
}

TierAccountant::TierAccountant(const StorageHierarchy& hierarchy) {
  for (const TierSpec& spec : hierarchy.tiers()) {
    const auto i = static_cast<std::size_t>(spec.tier);
    specs_[i] = spec;
    present_[i] = true;
  }
}

const TierSpec* TierAccountant::find(Tier t) const {
  const auto i = static_cast<std::size_t>(t);
  return present_[i] ? &specs_[i] : nullptr;
}

const TierSpec& TierAccountant::spec(Tier t) const {
  if (const TierSpec* s = find(t)) return *s;
  throw std::out_of_range(std::string("TierAccountant: no tier '") +
                          tier_name(t) + "'");
}

bool TierAccountant::fits(Tier t, Bytes bytes) const {
  const TierSpec* s = find(t);
  if (!s) return false;
  if (s->unbounded()) return true;
  return used(t) + bytes <= s->capacity;
}

void TierAccountant::charge(Tier t, Residency r, Bytes bytes) {
  if (bytes < 0) throw std::logic_error("TierAccountant: negative charge");
  if (!fits(t, bytes))
    throw InfeasibleError(std::string("TierAccountant: tier '") +
                             tier_name(t) + "' cannot fit " +
                             format_bytes(bytes) + " of " + residency_name(r) +
                             "; " + dump());
  used_[static_cast<int>(t)][static_cast<int>(r)] += bytes;
  peak_[static_cast<int>(t)] =
      std::max(peak_[static_cast<int>(t)], used(t));
}

void TierAccountant::release(Tier t, Residency r, Bytes bytes) {
  if (bytes < 0) throw std::logic_error("TierAccountant: negative release");
  Bytes& u = used_[static_cast<int>(t)][static_cast<int>(r)];
  if (bytes > u)
    throw std::logic_error(std::string("TierAccountant: ") +
                           residency_name(r) + " underflow on '" +
                           tier_name(t) + "' (release " + format_bytes(bytes) +
                           " of " + format_bytes(u) + " outstanding); " +
                           dump());
  u -= bytes;
}

Bytes TierAccountant::used(Tier t) const {
  Bytes total = 0;
  for (int r = 0; r < kNumResidencyClasses; ++r)
    total += used_[static_cast<int>(t)][r];
  return total;
}

Bytes TierAccountant::used(Tier t, Residency r) const {
  return used_[static_cast<int>(t)][static_cast<int>(r)];
}

Bytes TierAccountant::free_bytes(Tier t) const {
  const TierSpec* s = find(t);
  if (!s) return 0;
  if (s->unbounded()) return TierSpec::kUnbounded;
  return s->capacity - used(t);
}

Bytes TierAccountant::peak(Tier t) const { return peak_[static_cast<int>(t)]; }

std::string TierAccountant::dump() const {
  std::ostringstream os;
  os << "ledger:";
  for (int i = 0; i < kNumTiers; ++i) {
    if (!present_[i]) continue;
    const TierSpec& s = specs_[i];
    os << " " << tier_name(s.tier) << " " << used(s.tier) << "B/";
    if (s.unbounded())
      os << "inf";
    else
      os << s.capacity << "B";
    // Per-class breakdown, only for classes actually holding bytes.
    std::ostringstream classes;
    for (int r = 0; r < kNumResidencyClasses; ++r) {
      const Bytes u = used_[static_cast<int>(s.tier)][r];
      if (u > 0)
        classes << (classes.tellp() > 0 ? " " : "")
                << residency_name(static_cast<Residency>(r)) << " " << u << "B";
    }
    if (classes.tellp() > 0) os << " (" << classes.str() << ")";
  }
  return os.str();
}

}  // namespace karma::tier
