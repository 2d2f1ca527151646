#include "common/rng.h"

#include "common/assert.h"

namespace pipette {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::split_seed(std::uint64_t seed, std::uint64_t stream) {
  // Two SplitMix64 rounds over a (seed, stream) combination keep child seeds
  // well separated even for adjacent stream ids and correlated parent seeds.
  return mix64(seed ^ mix64(stream ^ 0x5851f42d4c957f2dULL));
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::next_below(std::uint64_t bound) {
  PIPETTE_ASSERT(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  PIPETTE_ASSERT(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

double Rng::next_double() {
  // 53 random bits into [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) { return next_double() < p; }

}  // namespace pipette
