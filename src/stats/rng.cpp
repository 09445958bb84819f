#include "stats/rng.hpp"

#include "common/contracts.hpp"

namespace bmfusion::stats {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256pp::Xoshiro256pp(std::uint64_t seed) {
  SplitMix64 sm(seed);
  *this = Xoshiro256pp(sm);
}

Xoshiro256pp::Xoshiro256pp(SplitMix64& mixer) {
  for (std::uint64_t& s : state_) s = mixer.next();
  // An all-zero state would lock the generator at zero; SplitMix64 cannot
  // produce four consecutive zeros from any seed, but be defensive.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Xoshiro256pp::next_below(std::uint64_t bound) {
  BMFUSION_REQUIRE(bound > 0, "next_below requires a positive bound");
  // Rejection sampling over the largest multiple of bound.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

void Xoshiro256pp::jump() {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL, 0xA9582618E03FC9AAULL,
      0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if ((word & (1ULL << b)) != 0) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)next_u64();
    }
  }
  state_ = acc;
}

Xoshiro256pp Xoshiro256pp::split() {
  Xoshiro256pp child = *this;
  child.jump();
  // Advance the parent past the child's stream start so the two do not
  // overlap (the child owns [jump, 2*jump)).
  jump();
  jump();
  return child;
}

}  // namespace bmfusion::stats
