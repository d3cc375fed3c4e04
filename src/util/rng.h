// Deterministic random number generation for APEX.
//
// Everything random in the system — the adversary's schedule, the
// processors' protocol coins, the workload generators — draws from streams
// derived from a single 64-bit seed.  The derivation is hierarchical
// (splitmix64 over (seed, stream-id)), so two streams with different ids are
// statistically independent, and the *oblivious adversary* requirement of
// the A-PRAM model (schedule fixed independently of the processors' random
// choices) is satisfied by construction: the schedule stream never reads the
// processor streams.
#pragma once

#include <cstdint>
#include <vector>

namespace apex {

/// splitmix64 step: the standard 64-bit finalizer-based generator.
/// Used both as a standalone mixer and to seed Xoshiro streams.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Mix two 64-bit values into one (for deriving child seeds).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept;

/// xoshiro256** — fast, high-quality 64-bit PRNG.
/// Satisfies (most of) the C++ UniformRandomBitGenerator requirements.
class Rng {
 public:
  using result_type = std::uint64_t;

  Rng() noexcept : Rng(0xA5EED5EEDDEADBEEULL) {}
  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }

  // next(), below() and uniform() are defined inline (after the class) so a
  // hot loop that copies an Rng into a local keeps the four state words in
  // registers across every draw.
  std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound). bound must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with success probability p.
  bool coin(double p) noexcept;

  /// Derive an independent child stream; deterministic in (this, id).
  Rng child(std::uint64_t id) const noexcept;

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

inline std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

inline std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) [[unlikely]] {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

inline double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

/// A root seed fan-out: named streams for the major subsystems so tests and
/// benches can document exactly where each coin came from.
struct SeedTree {
  std::uint64_t root = 1;

  // Domain-separation tags for the derived streams.
  static constexpr std::uint64_t kScheduleTag = 0x5C4E0D0131A5ULL;
  static constexpr std::uint64_t kProcessorTag = 0x9120CE5509ULL;
  static constexpr std::uint64_t kWorkloadTag = 0x3012C10ADULL;

  /// Adversary / schedule stream (oblivious: independent of all others).
  Rng schedule() const noexcept { return Rng(mix64(root, kScheduleTag)); }
  /// Stream for virtual processor `i`'s protocol coins.
  Rng processor(std::size_t i) const noexcept {
    return Rng(mix64(mix64(root, kProcessorTag), i));
  }
  /// Stream for workload / input generation.
  Rng workload() const noexcept { return Rng(mix64(root, kWorkloadTag)); }
};

}  // namespace apex
