#pragma once
// Deterministic, seedable random number generation.
//
// All stochastic behaviour in the library flows through Rng so that every
// simulation is exactly reproducible from a 64-bit seed. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded via SplitMix64,
// which gives well-distributed state even from small seeds.

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace vdc {

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialise state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value. Inline: guest writes draw one per byte.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Exponentially distributed variate with the given rate (1/mean).
  double exponential(double rate);

  /// Weibull(shape k, scale lambda) variate.
  double weibull(double shape, double scale);

  /// Standard normal via Box–Muller (no cached spare; deterministic order).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Fork a child RNG whose stream is decorrelated from this one.
  /// Useful to give each component an independent deterministic stream.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace vdc
