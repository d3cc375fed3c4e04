#include "util/rng.h"

namespace apex {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

Rng::Rng(std::uint64_t seed) noexcept {
  // Seed the four xoshiro words from splitmix64, per the reference
  // recommendation; guards against the all-zero state.
  std::uint64_t sm = seed;
  for (auto& w : s_) w = splitmix64(sm);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + below(hi - lo + 1);
}

bool Rng::coin(double p) noexcept { return uniform() < p; }

Rng Rng::child(std::uint64_t id) const noexcept {
  // Derive deterministically from current state without perturbing it.
  return Rng(mix64(mix64(s_[0], s_[3]), id));
}

}  // namespace apex
