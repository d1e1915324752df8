#include "common/rng.hpp"

#include <cmath>

namespace vdc {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // xoshiro must not start from the all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but keep the guard for clarity.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  VDC_ASSERT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  VDC_ASSERT(n > 0);
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double rate) {
  VDC_ASSERT(rate > 0.0);
  // -log(1 - u) with u in [0,1) avoids log(0).
  return -std::log1p(-uniform()) / rate;
}

double Rng::weibull(double shape, double scale) {
  VDC_ASSERT(shape > 0.0 && scale > 0.0);
  return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
}

double Rng::normal(double mean, double stddev) {
  // Box–Muller, always consuming exactly two uniforms.
  double u1 = uniform();
  double u2 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * M_PI * u2);
}

Rng Rng::fork() {
  // Use two draws to derive an independent child seed.
  const std::uint64_t a = next();
  const std::uint64_t b = next();
  return Rng(a ^ std::rotl(b, 29) ^ 0xd1b54a32d192ed03ull);
}

}  // namespace vdc
