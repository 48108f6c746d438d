// Deterministic pseudo-random number generation.
//
// All stochastic components (synthetic data, simulated annealing,
// data-parallel shard shuffling) take an explicit Rng so experiments are
// reproducible byte-for-byte. We use SplitMix64 (public-domain algorithm by
// Steele et al.) because it is tiny, fast, and has well-understood quality.
#pragma once

#include <cstdint>

#include "src/util/hash.h"

namespace karma {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    return util::splitmix64_mix(state_ += 0x9e3779b97f4a7c15ULL);
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Uniform integer in [0, n). Requires n > 0.
  ///
  /// Rejection sampling: a bare `next_u64() % n` maps 2^64 values onto n
  /// buckets, so when n does not divide 2^64 the low (2^64 mod n)
  /// residues receive one extra preimage each — a bias that is
  /// negligible for small n but grows to a full 2x skew as n approaches
  /// 2^64. Draws are retried until they land below the largest multiple
  /// of n, which makes every residue exactly equally likely. The
  /// expected retry count is < 1 for every n.
  std::uint64_t next_below(std::uint64_t n) {
    // 2^64 mod n, computed without 128-bit arithmetic.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform float in [-scale, scale). Used for weight init.
  float next_symmetric(float scale) {
    return (static_cast<float>(next_double()) * 2.0f - 1.0f) * scale;
  }

  /// Derive an independent stream (for per-worker RNGs).
  Rng split() { return Rng(next_u64() ^ 0xdeadbeefcafef00dULL); }

 private:
  std::uint64_t state_;
};

}  // namespace karma
