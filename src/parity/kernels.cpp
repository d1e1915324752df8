#include "parity/kernels.hpp"

#include <atomic>

#include "common/assert.hpp"
#include "parity/gf256.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VDC_KERNELS_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define VDC_KERNELS_NEON 1
#endif

namespace vdc::parity {

namespace {

// --- scalar tier: the equivalence reference and the SIMD tails ------------

void scalar_xor(std::byte* dst, const std::byte* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void scalar_mul_add(std::uint8_t c, const std::uint8_t* src,
                    std::uint8_t* dst, std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  const auto& t = gf256::detail::tables();
  const unsigned lc = t.log[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    if (s != 0) dst[i] ^= t.exp[lc + t.log[s]];
  }
}

// The two 16-entry nibble tables behind the SIMD GF(256) multiply: the
// product of c with byte s decomposes as c*(s & 0x0f) ^ c*(s & 0xf0),
// each factor a 16-way lookup (ISA-L's gf_vect_mul layout).
struct NibbleTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};

NibbleTables nibble_tables(std::uint8_t c) {
  NibbleTables t{};
  for (unsigned i = 0; i < 16; ++i) {
    t.lo[i] = gf256::mul(c, static_cast<std::uint8_t>(i));
    t.hi[i] = gf256::mul(c, static_cast<std::uint8_t>(i << 4));
  }
  return t;
}

// --- AVX2 tier -------------------------------------------------------------

#ifdef VDC_KERNELS_X86

__attribute__((target("avx2"))) void avx2_xor(std::byte* dst,
                                              const std::byte* src,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 128 <= n; i += 128) {
    for (std::size_t v = 0; v < 128; v += 32) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dst + i + v));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(src + i + v));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + v),
                          _mm256_xor_si256(a, b));
    }
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(a, b));
  }
  if (i < n) scalar_xor(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void avx2_mul_add(std::uint8_t c,
                                                  const std::uint8_t* src,
                                                  std::uint8_t* dst,
                                                  std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    avx2_xor(reinterpret_cast<std::byte*>(dst),
             reinterpret_cast<const std::byte*>(src), n);
    return;
  }
  const NibbleTables nt = nibble_tables(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nt.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(nt.hi)));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i sl = _mm256_and_si256(s, mask);
    const __m256i sh = _mm256_and_si256(_mm256_srli_epi16(s, 4), mask);
    const __m256i prod = _mm256_xor_si256(_mm256_shuffle_epi8(lo, sl),
                                          _mm256_shuffle_epi8(hi, sh));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, prod));
  }
  if (i < n) scalar_mul_add(c, src + i, dst + i, n - i);
}

bool avx2_supported() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // VDC_KERNELS_X86

// --- NEON tier -------------------------------------------------------------

#ifdef VDC_KERNELS_NEON

void neon_xor(std::byte* dst, const std::byte* src, std::size_t n) {
  std::size_t i = 0;
  auto* d = reinterpret_cast<std::uint8_t*>(dst);
  const auto* s = reinterpret_cast<const std::uint8_t*>(src);
  for (; i + 64 <= n; i += 64) {
    for (std::size_t v = 0; v < 64; v += 16)
      vst1q_u8(d + i + v, veorq_u8(vld1q_u8(d + i + v), vld1q_u8(s + i + v)));
  }
  for (; i + 16 <= n; i += 16)
    vst1q_u8(d + i, veorq_u8(vld1q_u8(d + i), vld1q_u8(s + i)));
  if (i < n) scalar_xor(dst + i, src + i, n - i);
}

void neon_mul_add(std::uint8_t c, const std::uint8_t* src, std::uint8_t* dst,
                  std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    neon_xor(reinterpret_cast<std::byte*>(dst),
             reinterpret_cast<const std::byte*>(src), n);
    return;
  }
  const NibbleTables nt = nibble_tables(c);
  const uint8x16_t lo = vld1q_u8(nt.lo);
  const uint8x16_t hi = vld1q_u8(nt.hi);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t d = vld1q_u8(dst + i);
    const uint8x16_t prod =
        veorq_u8(vqtbl1q_u8(lo, vandq_u8(s, mask)),
                 vqtbl1q_u8(hi, vshrq_n_u8(s, 4)));
    vst1q_u8(dst + i, veorq_u8(d, prod));
  }
  if (i < n) scalar_mul_add(c, src + i, dst + i, n - i);
}

#endif  // VDC_KERNELS_NEON

// --- registry / dispatch ---------------------------------------------------

constexpr KernelOps kScalarOps{KernelTier::Scalar, "scalar", scalar_xor,
                               scalar_mul_add};
#ifdef VDC_KERNELS_X86
constexpr KernelOps kAvx2Ops{KernelTier::Avx2, "avx2", avx2_xor,
                             avx2_mul_add};
#endif
#ifdef VDC_KERNELS_NEON
constexpr KernelOps kNeonOps{KernelTier::Neon, "neon", neon_xor,
                             neon_mul_add};
#endif

const KernelOps* find_ops(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return &kScalarOps;
    case KernelTier::Avx2:
#ifdef VDC_KERNELS_X86
      if (avx2_supported()) return &kAvx2Ops;
#endif
      return nullptr;
    case KernelTier::Neon:
#ifdef VDC_KERNELS_NEON
      return &kNeonOps;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::atomic<const KernelOps*>& active_slot() {
  static std::atomic<const KernelOps*> slot{
      &kernel_for(supported_tiers().back())};
  return slot;
}

}  // namespace

const std::vector<KernelTier>& supported_tiers() {
  static const std::vector<KernelTier> tiers = [] {
    std::vector<KernelTier> out{KernelTier::Scalar};
    if (find_ops(KernelTier::Avx2) != nullptr)
      out.push_back(KernelTier::Avx2);
    if (find_ops(KernelTier::Neon) != nullptr)
      out.push_back(KernelTier::Neon);
    return out;
  }();
  return tiers;
}

bool tier_supported(KernelTier tier) { return find_ops(tier) != nullptr; }

const KernelOps& kernel_for(KernelTier tier) {
  const KernelOps* ops = find_ops(tier);
  VDC_REQUIRE(ops != nullptr, "parity kernel tier unsupported on this CPU");
  return *ops;
}

const KernelOps& active_kernel() {
  return *active_slot().load(std::memory_order_relaxed);
}

void set_active_tier(KernelTier tier) {
  active_slot().store(&kernel_for(tier), std::memory_order_relaxed);
}

const char* tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::Scalar:
      return "scalar";
    case KernelTier::Avx2:
      return "avx2";
    case KernelTier::Neon:
      return "neon";
  }
  return "unknown";
}

}  // namespace vdc::parity
