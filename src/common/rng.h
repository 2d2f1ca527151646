// Deterministic pseudo-random number generation.
//
// The simulator must be reproducible across runs and platforms, so we avoid
// std::mt19937/std::uniform_int_distribution (whose outputs are unspecified
// across standard library implementations) in favour of a fixed xoshiro256**
// implementation seeded through SplitMix64.
#pragma once

#include <cstdint>

namespace pipette {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state, and
/// as a cheap stateless hash for deterministic synthetic data content.
/// Defined here so the pattern synthesis loops (common/bytes.cpp) inline it.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless mixing function (one SplitMix64 round on `x`).
inline std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, deterministic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// The seed of sub-stream `stream` of the generator seeded with `seed`.
  /// Pure function of (seed, stream): the fleet layer uses it to hand every
  /// shard an independent, replayable workload stream derived from one
  /// fleet-level seed.
  static std::uint64_t split_seed(std::uint64_t seed, std::uint64_t stream);

  /// Splittable-RNG child: an independent generator for sub-stream `stream`,
  /// derived from this generator's *seed* (not its current position), so the
  /// same parent always yields the same children no matter how much either
  /// has drawn.
  Rng split(std::uint64_t stream) const { return Rng(split_seed(seed_, stream)); }

  /// Uniform 64-bit value.
  std::uint64_t next();

  /// Uniform value in [0, bound) with unbiased rejection (Lemire's method).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform value in [lo, hi] inclusive.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p of returning true.
  bool next_bool(double p);

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
};

}  // namespace pipette
