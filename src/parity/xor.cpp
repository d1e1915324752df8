#include "parity/xor.hpp"

#include <cstdint>
#include <cstring>

#include "common/assert.hpp"
#include "parity/kernels.hpp"

namespace vdc::parity {

void xor_into(std::span<std::byte> dst, std::span<const std::byte> src) {
  VDC_ASSERT_MSG(dst.size() == src.size(), "xor_into size mismatch");
  // Dispatch to the active kernel tier (AVX2 / NEON / scalar; every tier
  // is bit-exact against the scalar reference).
  active_kernel().xor_into(dst.data(), src.data(), dst.size());
}

bool all_zero(std::span<const std::byte> data) {
  std::size_t i = 0;
  const std::size_t n = data.size();

  // Word-blocked like xor_into: this gates zero-page elision and RLE runs
  // on the capture hot path, so scan 4 machine words per iteration.
  constexpr std::size_t kWord = sizeof(std::uint64_t);
  for (; i + 4 * kWord <= n; i += 4 * kWord) {
    std::uint64_t a[4];
    std::memcpy(a, data.data() + i, sizeof a);
    if ((a[0] | a[1] | a[2] | a[3]) != 0) return false;
  }
  for (; i + kWord <= n; i += kWord) {
    std::uint64_t a;
    std::memcpy(&a, data.data() + i, kWord);
    if (a != 0) return false;
  }
  for (; i < n; ++i)
    if (data[i] != std::byte{0}) return false;
  return true;
}

}  // namespace vdc::parity
