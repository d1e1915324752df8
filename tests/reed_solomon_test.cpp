// Tests for GF(256) arithmetic and the Cauchy Reed-Solomon codec:
// field axioms, MDS property across erasure patterns, and equivalence of
// incremental (delta) parity updates with re-encoding.

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "parity/gf256.hpp"
#include "parity/reed_solomon.hpp"

namespace vdc::parity {
namespace {

Block random_block(Rng& rng, std::size_t n) {
  Block out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(gf256::add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(gf256::sub(0x57, 0x83), 0x57 ^ 0x83);
}

TEST(Gf256, MultiplicationIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 1), a);
    EXPECT_EQ(gf256::mul(1, static_cast<std::uint8_t>(a)), a);
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(Gf256, MultiplicationCommutesAndAssociates) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    const auto b = static_cast<std::uint8_t>(rng.next());
    const auto c = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
    EXPECT_EQ(gf256::mul(gf256::mul(a, b), c),
              gf256::mul(a, gf256::mul(b, c)));
    // Distributivity over XOR.
    EXPECT_EQ(gf256::mul(a, gf256::add(b, c)),
              gf256::add(gf256::mul(a, b), gf256::mul(a, c)));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(gf256::mul(static_cast<std::uint8_t>(a), inv), 1)
        << "a=" << a;
  }
  EXPECT_THROW(gf256::inv(0), InvariantError);
}

TEST(Gf256, DivisionInvertsMultiplication) {
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next());
    auto b = static_cast<std::uint8_t>(rng.next());
    if (b == 0) b = 1;
    EXPECT_EQ(gf256::div(gf256::mul(a, b), b), a);
  }
}

TEST(Gf256, PowMatchesRepeatedMul) {
  const std::uint8_t g = 2;
  std::uint8_t acc = 1;
  for (unsigned e = 0; e < 300; ++e) {
    EXPECT_EQ(gf256::pow(g, e), acc) << "e=" << e;
    acc = gf256::mul(acc, g);
  }
}

TEST(Gf256, MulAddMatchesScalarLoop) {
  Rng rng(3);
  for (std::uint8_t c : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{7},
                         std::uint8_t{0xd3}}) {
    auto src = random_block(rng, 333);
    auto dst = random_block(rng, 333);
    auto expect = dst;
    for (std::size_t i = 0; i < 333; ++i)
      expect[i] = static_cast<std::byte>(
          static_cast<std::uint8_t>(expect[i]) ^
          gf256::mul(c, static_cast<std::uint8_t>(src[i])));
    gf256::mul_add(c, reinterpret_cast<const std::uint8_t*>(src.data()),
                   reinterpret_cast<std::uint8_t*>(dst.data()), 333);
    EXPECT_EQ(dst, expect) << "c=" << int(c);
  }
}

TEST(ReedSolomon, ConstructionValidation) {
  EXPECT_THROW(ReedSolomonCodec(0, 1), ConfigError);
  EXPECT_THROW(ReedSolomonCodec(1, 0), ConfigError);
  EXPECT_THROW(ReedSolomonCodec(200, 100), ConfigError);
  EXPECT_NO_THROW(ReedSolomonCodec(3, 3));
}

TEST(ReedSolomon, CoefficientsAreNonzero) {
  ReedSolomonCodec codec(8, 4);
  for (std::size_t j = 0; j < 4; ++j)
    for (std::size_t i = 0; i < 8; ++i)
      EXPECT_NE(codec.coefficient(j, i), 0);
}

// Known answers for the scaled Cauchy generator of RS(4,3): row 0 and
// column 0 are all ones (RAID-5 parity), the rest is pinned so a generator
// change cannot slip by unnoticed (it would change every RS parity byte).
TEST(ReedSolomon, ScaledGeneratorKnownAnswer) {
  const ReedSolomonCodec codec(4, 3);
  std::vector<std::vector<int>> got(3, std::vector<int>(4));
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t i = 0; i < 4; ++i) got[j][i] = codec.coefficient(j, i);
  const std::vector<std::vector<int>> expect = {
      {1, 1, 1, 1}, {1, 196, 143, 210}, {1, 83, 211, 142}};
  EXPECT_EQ(got, expect);
}

// Exhaustive MDS check: every erasure pattern of size <= m recovers. The
// (k,1) rows are the RAID-5 stripes the protocol runs.
class RsErasureSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RsErasureSweep, EveryPatternUpToMRecovers) {
  const auto [k, m] = GetParam();
  Rng rng(10 + k * 31 + m);
  ReedSolomonCodec codec(k, m);
  const std::size_t size = 96;

  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, size));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  ASSERT_EQ(parity.size(), m);

  std::vector<Block> all = data;
  for (auto& p : parity) all.push_back(p);
  const std::size_t width = k + m;

  // Enumerate all subsets of erasures with |S| <= m via bitmask (width is
  // small in the parameterisation).
  for (std::uint32_t mask = 1; mask < (1u << width); ++mask) {
    const auto popcount = __builtin_popcount(mask);
    if (popcount > static_cast<int>(m)) continue;
    std::vector<std::optional<Block>> stripe(all.begin(), all.end());
    for (std::size_t i = 0; i < width; ++i)
      if (mask & (1u << i)) stripe[i] = std::nullopt;
    ASSERT_NO_THROW(codec.reconstruct(stripe)) << "mask=" << mask;
    for (std::size_t i = 0; i < width; ++i)
      ASSERT_EQ(*stripe[i], all[i]) << "mask=" << mask << " slot " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, RsErasureSweep,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(2u, 1u),
                      std::make_tuple(3u, 1u), std::make_tuple(7u, 1u),
                      std::make_tuple(15u, 1u), std::make_tuple(3u, 2u),
                      std::make_tuple(4u, 3u), std::make_tuple(5u, 2u),
                      std::make_tuple(6u, 4u)));

TEST(ReedSolomon, TooManyErasuresThrows) {
  Rng rng(4);
  ReedSolomonCodec codec(4, 2);
  std::vector<Block> data;
  for (int i = 0; i < 4; ++i) data.push_back(random_block(rng, 64));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  std::vector<std::optional<Block>> stripe;
  for (auto& d : data) stripe.emplace_back(d);
  for (auto& p : parity) stripe.emplace_back(p);
  stripe[0] = stripe[1] = stripe[2] = std::nullopt;
  EXPECT_THROW(codec.reconstruct(stripe), DataLossError);
}

TEST(ReedSolomon, DeltaUpdateEqualsReencode) {
  // Linearity: parity_j ^= c_{j,i} * (new_i ^ old_i) must equal a full
  // re-encode — this is what the DVDC protocol's incremental RS path does.
  Rng rng(5);
  const std::size_t k = 4, m = 3, size = 256;
  ReedSolomonCodec codec(k, m);
  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, size));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);

  // Mutate member 2.
  Block old2 = data[2];
  data[2] = random_block(rng, size);
  Block delta = data[2];
  for (std::size_t i = 0; i < size; ++i) delta[i] ^= old2[i];

  for (std::size_t j = 0; j < m; ++j)
    gf256::mul_add(codec.coefficient(j, 2),
                   reinterpret_cast<const std::uint8_t*>(delta.data()),
                   reinterpret_cast<std::uint8_t*>(parity[j].data()), size);

  std::vector<BlockView> views2(data.begin(), data.end());
  EXPECT_EQ(parity, codec.encode(views2));
}

TEST(ReedSolomon, LargeStripe) {
  // A wide stripe exercising table arithmetic across many coefficients.
  Rng rng(6);
  const std::size_t k = 20, m = 5, size = 64;
  ReedSolomonCodec codec(k, m);
  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, size));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);

  std::vector<std::optional<Block>> stripe;
  for (auto& d : data) stripe.emplace_back(d);
  for (auto& p : parity) stripe.emplace_back(p);
  // Erase 5 spread-out slots (3 data + 2 parity).
  const Block d0 = data[0], d7 = data[7], d19 = data[19];
  stripe[0] = stripe[7] = stripe[19] = std::nullopt;
  stripe[k + 1] = stripe[k + 4] = std::nullopt;
  codec.reconstruct(stripe);
  EXPECT_EQ(*stripe[0], d0);
  EXPECT_EQ(*stripe[7], d7);
  EXPECT_EQ(*stripe[19], d19);
  EXPECT_EQ(*stripe[k + 1], parity[1]);
  EXPECT_EQ(*stripe[k + 4], parity[4]);
}

}  // namespace
}  // namespace vdc::parity
