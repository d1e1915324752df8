#include "common/crc32.hpp"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define VDC_CRC32_CLMUL 1
#endif

namespace vdc {
namespace {

// Slice-by-8: eight derived tables let the hot loop fold 8 input bytes per
// iteration with no inter-byte dependency chain. table[0] is the classic
// byte-at-a-time table; table[k][i] advances table[k-1][i] by one more zero
// byte, so the outputs are identical to the bitwise definition.
struct Tables {
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

Tables build_tables() {
  Tables out{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    out.t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      out.t[k][i] = out.t[0][out.t[k - 1][i] & 0xFF] ^ (out.t[k - 1][i] >> 8);
  return out;
}

const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

inline std::uint32_t le32(const std::byte* p) {
  return static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[0])) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<std::uint8_t>(p[3])) << 24);
}

// The table kernel over the inverted register `c`.
std::uint32_t table_crc(const std::byte* p, std::size_t n, std::uint32_t c) {
  const auto& t = tables().t;
  while (n >= 8) {
    const std::uint32_t lo = c ^ le32(p);
    const std::uint32_t hi = le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  for (; n > 0; --n, ++p)
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFF] ^ (c >> 8);
  return c;
}

#ifdef VDC_CRC32_CLMUL

#define VDC_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

VDC_CLMUL_TARGET inline __m128i load(const std::byte* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Lane `x` carried over the next 128 bits into `next`: x.lo·k.lo ^
// x.hi·k.hi ^ next.
VDC_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

// Carry-less folding over the inverted register `c`; n >= 64 and a
// multiple of 16. The constants are the bit-reflected x^k mod P(x) of the
// Intel paper: k1, k2 fold a lane 512 bits ahead, k3, k4 fold 128 bits,
// k5 folds the last 64, and (P', mu) drive the Barrett reduction.
VDC_CLMUL_TARGET std::uint32_t clmul_crc(const std::byte* p, std::size_t n,
                                         std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  // Four lanes, each folded 64 bytes ahead per step.
  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  // The four lanes into one, then the 16-byte blocks left.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 bits to 64, then Barrett reduction to the 32-bit remainder.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool clmul_supported() {
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // VDC_CRC32_CLMUL

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
#ifdef VDC_CRC32_CLMUL
  static const bool clmul = clmul_supported();
  if (clmul && n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = clmul_crc(p, bulk, c);
    p += bulk;
    n -= bulk;
  }
#endif
  return table_crc(p, n, c) ^ 0xFFFFFFFFu;
}

}  // namespace vdc
