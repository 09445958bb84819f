// Deterministic pseudo-random number generation.
//
// xoshiro256++ with SplitMix64 seeding: small, fast, reproducible across
// platforms (unlike std:: distributions, whose output is implementation-
// defined). Every stochastic component in the project takes one of these by
// reference so experiments are replayable from a single seed.
#pragma once

#include <array>
#include <cstdint>

#include "common/contracts.hpp"

namespace bmfusion::stats {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and handy as
/// a tiny standalone generator for hashing-like uses.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna). Period 2^256 - 1.
class Xoshiro256pp {
 public:
  /// Seeds all 256 bits of state from `seed` via SplitMix64.
  explicit Xoshiro256pp(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Seeds all 256 bits of state from four consecutive draws of `mixer`
  /// (advancing it). Prefer this over funnelling a SplitMix64 draw through
  /// the 64-bit constructor, which collapses the stream back to 64 bits of
  /// entropy and correlates nearby streams.
  explicit Xoshiro256pp(SplitMix64& mixer);

  /// Next 64 uniformly distributed bits. This and the two uniform draws
  /// below are defined inline: every normal variate of a Monte Carlo die
  /// goes through them.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53-bit resolution.
  double next_double();

  /// Uniform double in [lo, hi).
  double next_uniform(double lo, double hi);

  /// Uniform integer in [0, bound) without modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Equivalent to 2^128 calls to next_u64(); use to derive independent
  /// streams for parallel workers.
  void jump();

  /// Returns a new generator jumped ahead of this one; advances *this too.
  /// Successive calls hand out disjoint streams.
  Xoshiro256pp split();

  /// UniformRandomBitGenerator interface (for std::shuffle).
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

inline std::uint64_t Xoshiro256pp::next_u64() {
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

inline double Xoshiro256pp::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline double Xoshiro256pp::next_uniform(double lo, double hi) {
  BMFUSION_REQUIRE(lo < hi, "next_uniform requires lo < hi");
  return lo + (hi - lo) * next_double();
}

}  // namespace bmfusion::stats
