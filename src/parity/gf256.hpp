#pragma once
// GF(2^8) arithmetic for Reed-Solomon coding.
//
// Field: GF(256) with the AES/Rijndael-compatible primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d) and generator 2. Multiplication and
// inversion go through exp/log tables built once at startup.

#include <array>
#include <cstdint>

#include "common/assert.hpp"

namespace vdc::parity::gf256 {

namespace detail {
struct Tables {
  std::array<std::uint8_t, 512> exp{};  // doubled to skip a mod in mul
  std::array<std::uint8_t, 256> log{};
  Tables();
};
const Tables& tables();
}  // namespace detail

inline std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }
inline std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }

inline std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = detail::tables();
  return t.exp[t.log[a] + t.log[b]];
}

inline std::uint8_t inv(std::uint8_t a) {
  VDC_ASSERT_MSG(a != 0, "GF(256) inverse of zero");
  const auto& t = detail::tables();
  return t.exp[255 - t.log[a]];
}

inline std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  VDC_ASSERT_MSG(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  const auto& t = detail::tables();
  return t.exp[t.log[a] + 255 - t.log[b]];
}

inline std::uint8_t pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = detail::tables();
  return t.exp[(static_cast<unsigned>(t.log[a]) * e) % 255];
}

/// dst[i] ^= c * src[i] — the RS inner loop. Routes through the active
/// kernel tier (parity/kernels.hpp): PSHUFB/TBL nibble tables on
/// AVX2/NEON, all bit-exact against the scalar table walk.
void mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
             std::size_t n);

}  // namespace vdc::parity::gf256
