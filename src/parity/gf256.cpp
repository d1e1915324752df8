#include "parity/gf256.hpp"

#include "parity/kernels.hpp"

namespace vdc::parity::gf256 {
namespace detail {

Tables::Tables() {
  std::uint16_t x = 1;
  for (int i = 0; i < 255; ++i) {
    exp[i] = static_cast<std::uint8_t>(x);
    log[static_cast<std::uint8_t>(x)] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if (x & 0x100) x ^= 0x11d;
  }
  for (int i = 255; i < 512; ++i) exp[i] = exp[i - 255];
  log[0] = 0;  // never read: mul/div guard zero operands
}

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace detail

void mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
             std::size_t n) {
  // Dispatch to the active kernel tier (PSHUFB/TBL nibble tables; every
  // tier is bit-exact against the scalar reference).
  active_kernel().gf256_mul_add(c, src, dst, n);
}

}  // namespace vdc::parity::gf256
