// Stable content hashing for cache keys.
//
// The plan cache (src/cache) keys a PlanRequest by streaming a canonical
// sequence of 64-bit words into Hasher128 (DESIGN.md §10); the
// calibration table hashes its bytes through digest128, which is the same
// hasher over 8-byte words. The hash must be stable across runs,
// platforms and library versions — std::hash guarantees none of that —
// so every constant below is fixed and published, and bytes are always
// read as little-endian words: a big-endian host computes the same
// digests as a little-endian one.
//
// The hasher (non-cryptographic; it guards against accidental collisions,
// not against a client crafting them):
//   - two 64-bit lanes, seeded with the first 128 fraction bits of pi
//     (0x243f6a8885a308d3, 0x13198a2e03707344);
//   - one step per word w, each lane a multiply by an odd constant and
//     an xor-shift:
//       a = (a ^ w) * 0x9e3779b97f4a7c15;  a ^= a >> 32;   (golden ratio)
//       b = (b + w) * 0xc2b2ae3d27d4eb4f;  b ^= b >> 29;   (xxHash64 P2)
//     Every step is a bijection of the lane for a fixed w and maps
//     distinct w to distinct lanes for a fixed state, so two inputs of
//     one length that differ in exactly one word never collide;
//   - finish() absorbs the input's byte length as one more word, then
//     runs each lane through the SplitMix64 finalizer to form hi and lo.
//
// Changing anything here changes every RequestKey: bump `fp_version` in
// src/cache/request_key.cpp with it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace karma::util {

inline constexpr std::uint64_t kHashSeedA = 0x243f6a8885a308d3ULL;
inline constexpr std::uint64_t kHashSeedB = 0x13198a2e03707344ULL;
inline constexpr std::uint64_t kHashMulA = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kHashMulB = 0xc2b2ae3d27d4eb4fULL;

/// The 8 bytes at `p` as a little-endian word, whatever the host order.
inline std::uint64_t load_le64(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big)
    w = __builtin_bswap64(w);
  return w;
}

/// Calls `f(word)` for each little-endian 8-byte word of `data`, the last
/// one zero-padded: ceil(size / 8) calls.
template <class F>
void for_each_le_word(std::string_view data, F&& f) {
  const char* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) f(load_le64(p));
  if (n > 0) {
    char tail[8] = {};
    std::memcpy(tail, p, n);
    f(load_le64(tail));
  }
}

/// SplitMix64's output finalizer (Steele, Lea & Flood 2014).
inline std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 128-bit digest. Value-comparable and hashable; `hex()` is
/// filesystem-safe (32 lowercase hex chars, hi then lo).
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const Digest128&) const = default;

  std::string hex() const {
    static const char* kHex = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
      out[static_cast<std::size_t>(15 - i)] = kHex[(hi >> (4 * i)) & 0xF];
    for (int i = 0; i < 16; ++i)
      out[static_cast<std::size_t>(31 - i)] = kHex[(lo >> (4 * i)) & 0xF];
    return out;
  }

  /// Inverse of hex(): exactly 32 lowercase hex digits, else nullopt.
  static std::optional<Digest128> from_hex(std::string_view text) {
    if (text.size() != 32) return std::nullopt;
    Digest128 d;
    for (std::size_t i = 0; i < 32; ++i) {
      const char c = text[i];
      std::uint64_t nibble;
      if (c >= '0' && c <= '9') {
        nibble = static_cast<std::uint64_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = static_cast<std::uint64_t>(c - 'a' + 10);
      } else {
        return std::nullopt;
      }
      std::uint64_t& half = i < 16 ? d.hi : d.lo;
      half = (half << 4) | nibble;
    }
    return d;
  }
};

/// Word-at-a-time 128-bit hasher (see the file comment). Streaming words
/// w1..wn gives the same digest as digest128 over their 8n little-endian
/// bytes.
class Hasher128 {
 public:
  /// Absorbs one word (8 bytes of input).
  void word(std::uint64_t w) {
    step(w);
    length_ += 8;
  }

  /// Absorbs `data` as little-endian words, the last one zero-padded.
  /// Only the true byte count joins the length, so call it last unless
  /// data.size() is a multiple of 8.
  void bytes(std::string_view data) {
    for_each_le_word(data, [this](std::uint64_t w) { step(w); });
    length_ += data.size();
  }

  Digest128 finish() const {
    Hasher128 closed = *this;
    closed.step(length_);
    return {splitmix64_mix(closed.a_), splitmix64_mix(closed.b_)};
  }

 private:
  void step(std::uint64_t w) {
    a_ = (a_ ^ w) * kHashMulA;
    a_ ^= a_ >> 32;
    b_ = (b_ + w) * kHashMulB;
    b_ ^= b_ >> 29;
  }

  std::uint64_t a_ = kHashSeedA;
  std::uint64_t b_ = kHashSeedB;
  std::uint64_t length_ = 0;
};

inline Digest128 digest128(std::string_view data) {
  Hasher128 h;
  h.bytes(data);
  return h.finish();
}

struct Digest128Hash {
  std::size_t operator()(const Digest128& d) const {
    return static_cast<std::size_t>(d.hi ^ (d.lo * kHashMulA));
  }
};

}  // namespace karma::util
