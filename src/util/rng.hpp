// Deterministic xoshiro256++ PRNG.
//
// Simulations must be exactly reproducible from (scenario, seed); we do not
// use std::mt19937 because its distributions are not guaranteed identical
// across standard-library implementations. All distribution code here is
// self-contained and portable.
#pragma once

#include <cstdint>

namespace bbrnash {

/// SplitMix64's increment (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64's output finalizer: a cheap, well-mixed 64-bit permutation.
/// One SplitMix64 step is splitmix64_mix(state += kSplitMix64Gamma).
[[nodiscard]] constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64, per the
  /// xoshiro authors' recommendation.
  explicit Rng(std::uint64_t seed = kSplitMix64Gamma) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64_mix(x += kSplitMix64Gamma);
  }

  /// Raw 64 uniform bits (xoshiro256++ step).
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias
  /// (bitmask-with-rejection; expected < 2 draws per call).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // Smallest all-ones mask covering bound-1.
    std::uint64_t mask = bound - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    std::uint64_t draw = next_u64() & mask;
    while (draw >= bound) draw = next_u64() & mask;
    return draw;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return next_double() < p; }

  /// Derives an independent child generator (for per-flow streams).
  // bbrnash-lint: allow(process-control) -- fork() here splits a PRNG
  // stream deterministically; it is not the process-control syscall.
  Rng fork() noexcept { return Rng{next_u64()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace bbrnash
