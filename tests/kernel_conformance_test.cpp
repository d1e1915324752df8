// Differential kernel-conformance suite.
//
// Every runtime-dispatched parity kernel (AVX2 / NEON) must be
// bit-exact against the scalar reference for xor_into and gf256 mul_add,
// across random inputs, adversarial contents, every misalignment of src
// and dst, vector-boundary-straddling tails, and zero-length calls. The
// suite runs cleanly under ASan/UBSan (the sanitizer CI job) and scales
// its random coverage with VDC_FUZZ_SEEDS, like the other fuzz regimes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "parity/gf256.hpp"
#include "parity/kernels.hpp"
#include "parity/xor.hpp"
#include "fuzz_seeds.hpp"

namespace vdc::parity {
namespace {

std::vector<std::uint8_t> random_buf(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 0xff);
  return out;
}

// Sizes chosen to straddle the 16-byte NEON and 32-byte AVX2 lanes and
// the 128-byte unrolled body (every SIMD tail runs the scalar loop), plus
// large buffers.
const std::vector<std::size_t>& coverage_sizes() {
  static const std::vector<std::size_t> sizes = [] {
    std::vector<std::size_t> s;
    for (std::size_t n = 0; n <= 40; ++n) s.push_back(n);
    for (std::size_t anchor : {64u, 96u, 128u, 160u, 256u, 4096u}) {
      s.push_back(anchor - 1);
      s.push_back(anchor);
      s.push_back(anchor + 1);
    }
    s.push_back(std::size_t{1} << 20);
    return s;
  }();
  return sizes;
}

// Coefficients hitting the mul_add special cases (0 skip, 1 == xor) and
// both nibble-table halves.
constexpr std::uint8_t kCoefficients[] = {0, 1, 2, 3, 0x0f, 0x10,
                                          0x1d, 0x80, 0xfe, 0xff};

void reference_xor(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

void reference_mul_add(std::uint8_t c, const std::uint8_t* src,
                       std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= gf256::mul(c, src[i]);
}

class KernelConformance : public ::testing::TestWithParam<KernelTier> {
 protected:
  const KernelOps& ops() { return kernel_for(GetParam()); }
};

TEST_P(KernelConformance, XorMatchesScalarOnRandomBuffers) {
  for (int seed = 1; seed <= fuzz_seed_count(4); ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    for (std::size_t n : coverage_sizes()) {
      auto src = random_buf(rng, n);
      auto dst = random_buf(rng, n);
      auto expect = dst;
      reference_xor(expect.data(), src.data(), n);
      ops().xor_into(reinterpret_cast<std::byte*>(dst.data()),
                     reinterpret_cast<const std::byte*>(src.data()), n);
      ASSERT_EQ(dst, expect) << "tier " << ops().name << " size " << n
                             << " seed " << seed;
    }
  }
}

TEST_P(KernelConformance, MulAddMatchesScalarOnRandomBuffers) {
  for (int seed = 1; seed <= fuzz_seed_count(4); ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 6271 + 17);
    for (std::size_t n : coverage_sizes()) {
      auto src = random_buf(rng, n);
      for (std::uint8_t c : kCoefficients) {
        auto dst = random_buf(rng, n);
        auto expect = dst;
        reference_mul_add(c, src.data(), expect.data(), n);
        ops().gf256_mul_add(c, src.data(), dst.data(), n);
        ASSERT_EQ(dst, expect) << "tier " << ops().name << " size " << n
                               << " c " << int(c) << " seed " << seed;
      }
    }
  }
}

// Every (src misalignment, dst misalignment) pair over a vector width —
// vector kernels use unaligned loads/stores, so no pair may differ.
TEST_P(KernelConformance, EveryMisalignmentPairMatchesScalar) {
  Rng rng(41);
  constexpr std::size_t kAlign = 64;
  constexpr std::size_t kLen = 200;  // spans unrolled body + vector + tail
  auto src_base = random_buf(rng, kAlign + kLen);
  auto dst_base = random_buf(rng, kAlign + kLen);
  for (std::size_t so = 0; so < kAlign; ++so) {
    for (std::size_t dz = 0; dz < kAlign; dz += 7) {  // sampled dst offsets
      auto dst = dst_base;
      auto expect = dst_base;
      reference_xor(expect.data() + dz, src_base.data() + so, kLen);
      ops().xor_into(reinterpret_cast<std::byte*>(dst.data() + dz),
                     reinterpret_cast<const std::byte*>(src_base.data() + so),
                     kLen);
      ASSERT_EQ(dst, expect) << "tier " << ops().name << " src+" << so
                             << " dst+" << dz;

      dst = dst_base;
      expect = dst_base;
      reference_mul_add(0x1d, src_base.data() + so, expect.data() + dz, kLen);
      ops().gf256_mul_add(0x1d, src_base.data() + so, dst.data() + dz, kLen);
      ASSERT_EQ(dst, expect) << "mul_add tier " << ops().name << " src+" << so
                             << " dst+" << dz;
    }
  }
}

TEST_P(KernelConformance, ZeroLengthIsANoOp) {
  std::vector<std::uint8_t> src{0xab}, dst{0xcd};
  ops().xor_into(reinterpret_cast<std::byte*>(dst.data()),
                 reinterpret_cast<const std::byte*>(src.data()), 0);
  EXPECT_EQ(dst[0], 0xcd);
  ops().gf256_mul_add(0x55, src.data(), dst.data(), 0);
  EXPECT_EQ(dst[0], 0xcd);
}

// Adversarial contents: all-zero, all-0xff, and a single set bit walked
// across every byte of a vector-width window at each boundary region.
TEST_P(KernelConformance, AdversarialPatternsMatchScalar) {
  constexpr std::size_t kLen = 160;
  std::vector<std::vector<std::uint8_t>> patterns;
  patterns.emplace_back(kLen, std::uint8_t{0});
  patterns.emplace_back(kLen, std::uint8_t{0xff});
  for (std::size_t pos : {0u, 31u, 32u, 63u, 64u, 127u, 128u, 159u}) {
    std::vector<std::uint8_t> p(kLen, 0);
    p[pos] = 0x80;
    patterns.push_back(std::move(p));
  }
  for (const auto& src : patterns) {
    for (const auto& base : patterns) {
      for (std::uint8_t c : kCoefficients) {
        auto dst = base;
        auto expect = base;
        reference_mul_add(c, src.data(), expect.data(), kLen);
        ops().gf256_mul_add(c, src.data(), dst.data(), kLen);
        ASSERT_EQ(dst, expect) << "tier " << ops().name << " c " << int(c);
      }
      auto dst = base;
      auto expect = base;
      reference_xor(expect.data(), src.data(), kLen);
      ops().xor_into(reinterpret_cast<std::byte*>(dst.data()),
                     reinterpret_cast<const std::byte*>(src.data()), kLen);
      ASSERT_EQ(dst, expect) << "xor tier " << ops().name;
    }
  }
}

// mul_add by 1 must equal xor; by 0 must leave dst untouched. These are
// the fast paths the vector kernels special-case.
TEST_P(KernelConformance, CoefficientIdentities) {
  Rng rng(97);
  for (std::size_t n : {0u, 1u, 33u, 150u, 4096u}) {
    auto src = random_buf(rng, n);
    auto dst = random_buf(rng, n);
    auto xored = dst;
    ops().gf256_mul_add(1, src.data(), dst.data(), n);
    ops().xor_into(reinterpret_cast<std::byte*>(xored.data()),
                   reinterpret_cast<const std::byte*>(src.data()), n);
    EXPECT_EQ(dst, xored) << "tier " << ops().name << " size " << n;

    auto frozen = dst;
    ops().gf256_mul_add(0, src.data(), dst.data(), n);
    EXPECT_EQ(dst, frozen) << "tier " << ops().name << " size " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelConformance,
                         ::testing::ValuesIn(supported_tiers()),
                         [](const auto& info) {
                           return std::string(tier_name(info.param));
                         });

TEST(KernelDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(tier_supported(KernelTier::Scalar));
  EXPECT_EQ(supported_tiers().front(), KernelTier::Scalar);
}

TEST(KernelDispatch, SetActiveTierRoutesPublicEntryPoints) {
  const KernelOps& before = active_kernel();
  for (KernelTier tier : supported_tiers()) {
    set_active_tier(tier);
    EXPECT_EQ(&active_kernel(), &kernel_for(tier));
    // The public entry points observe the switch.
    std::vector<std::byte> a(100, std::byte{0x5a}), b(100, std::byte{0xa5});
    xor_into(a, b);
    EXPECT_EQ(a[0], std::byte{0xff});
    std::vector<std::uint8_t> s(100, 2), d(100, 0);
    gf256::mul_add(3, s.data(), d.data(), 100);
    EXPECT_EQ(d[0], gf256::mul(3, 2));
  }
  set_active_tier(before.tier);
}

TEST(KernelDispatch, UnsupportedTierThrows) {
#if !defined(__aarch64__)
  EXPECT_FALSE(tier_supported(KernelTier::Neon));
  EXPECT_THROW(kernel_for(KernelTier::Neon), ConfigError);
  EXPECT_THROW(set_active_tier(KernelTier::Neon), ConfigError);
#else
  EXPECT_FALSE(tier_supported(KernelTier::Avx2));
  EXPECT_THROW(kernel_for(KernelTier::Avx2), ConfigError);
#endif
}

}  // namespace
}  // namespace vdc::parity
