// Tests for the parity substrate: XOR kernel, RAID-5 parity (RS(k,1)),
// and rotation.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "parity/codec.hpp"
#include "parity/reed_solomon.hpp"
#include "parity/rotation.hpp"
#include "parity/xor.hpp"

namespace vdc::parity {
namespace {

Block random_block(Rng& rng, std::size_t n) {
  Block out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

TEST(Xor, SelfXorIsZero) {
  Rng rng(1);
  Block a = random_block(rng, 1000);
  Block b = a;
  xor_into(b, a);
  EXPECT_TRUE(all_zero(b));
}

TEST(Xor, IsInvolution) {
  Rng rng(2);
  Block a = random_block(rng, 777);  // odd size exercises the tail loop
  Block b = random_block(rng, 777);
  Block c = a;
  xor_into(c, b);
  xor_into(c, b);
  EXPECT_EQ(c, a);
}

TEST(Xor, SizesFromZeroToWordMultiples) {
  Rng rng(3);
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 100u, 4096u}) {
    Block a = random_block(rng, n);
    Block b = random_block(rng, n);
    Block expect(n);
    for (std::size_t i = 0; i < n; ++i) expect[i] = a[i] ^ b[i];
    xor_into(a, b);
    EXPECT_EQ(a, expect) << "size " << n;
  }
}

TEST(Xor, SizeMismatchThrows) {
  Block a(10), b(11);
  EXPECT_THROW(xor_into(a, b), InvariantError);
}

ReedSolomonCodec raid5(std::size_t k) { return ReedSolomonCodec(k, 1); }

TEST(Raid5, ParityIsXorOfMembers) {
  Rng rng(4);
  const auto codec = raid5(3);
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, 256));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  ASSERT_EQ(parity.size(), 1u);
  Block check = parity[0];
  for (const auto& d : data) xor_into(check, d);
  EXPECT_TRUE(all_zero(check));
}

// RAID-5 is RS(k,1): for any width and block size the single parity block
// is the plain XOR of the members (encode and encode_parallel alike),
// because the scaled Cauchy generator has an all-ones first row and first
// column.
TEST(Raid5, IsRsWithAllOnesGenerator) {
  Rng rng(13);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = 1 + rng.uniform_u64(16);
    const std::size_t size = rng.uniform_u64(3000);
    std::vector<Block> data;
    for (std::size_t i = 0; i < k; ++i)
      data.push_back(random_block(rng, size));
    std::vector<BlockView> views(data.begin(), data.end());
    Block expect(size, std::byte{0});
    for (const auto& d : data) xor_into(expect, d);

    const auto codec = raid5(k);
    ASSERT_EQ(codec.parity_blocks(), 1u);
    EXPECT_EQ(codec.encode(views), std::vector<Block>{expect})
        << "k=" << k << " size=" << size;
    EXPECT_EQ(codec.encode_parallel(views, 4), std::vector<Block>{expect})
        << "k=" << k << " size=" << size;

    const std::size_t m = 1 + rng.uniform_u64(8);
    const ReedSolomonCodec rs(k, m);
    for (std::size_t i = 0; i < k; ++i)
      EXPECT_EQ(rs.coefficient(0, i), 1) << "k=" << k << " m=" << m;
    for (std::size_t j = 0; j < m; ++j)
      EXPECT_EQ(rs.coefficient(j, 0), 1) << "k=" << k << " m=" << m;
  }
}

// XOR parity needs no distinct GF(256) points, so RAID-5 groups may be wider
// than the k + m <= 256 limit of RS(k, m >= 2): a default planner puts every
// alive node but the parity reserve into one group.
TEST(Raid5, WiderThanGf256EncodesAndRebuilds) {
  Rng rng(14);
  constexpr std::size_t k = 300;
  const auto codec = raid5(k);
  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, 96));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  ASSERT_EQ(parity.size(), 1u);
  Block check = parity[0];
  for (const auto& d : data) xor_into(check, d);
  EXPECT_TRUE(all_zero(check));

  for (const std::size_t erased : {std::size_t{0}, std::size_t{255},
                                   std::size_t{299}, k}) {
    std::vector<std::optional<Block>> stripe(data.begin(), data.end());
    stripe.emplace_back(parity[0]);
    const Block original = *stripe[erased];
    stripe[erased] = std::nullopt;
    codec.reconstruct(stripe);
    EXPECT_EQ(*stripe[erased], original) << "erased=" << erased;
  }

  EXPECT_THROW(ReedSolomonCodec(k, 2), ConfigError);
}

class Raid5Reconstruct : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Raid5Reconstruct, AnySingleErasureRecovers) {
  const std::size_t erased = GetParam();
  Rng rng(5);
  constexpr std::size_t k = 4;
  const auto codec = raid5(k);
  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, 128));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);

  std::vector<std::optional<Block>> stripe;
  for (const auto& d : data) stripe.emplace_back(d);
  stripe.emplace_back(parity[0]);
  const Block original = *stripe[erased];
  stripe[erased] = std::nullopt;
  codec.reconstruct(stripe);
  EXPECT_EQ(*stripe[erased], original);
}

INSTANTIATE_TEST_SUITE_P(AllPositions, Raid5Reconstruct,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(Raid5, DoubleErasureThrowsDataLoss) {
  Rng rng(6);
  const auto codec = raid5(3);
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, 64));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  std::vector<std::optional<Block>> stripe;
  for (const auto& d : data) stripe.emplace_back(d);
  stripe.emplace_back(parity[0]);
  stripe[0] = std::nullopt;
  stripe[2] = std::nullopt;
  EXPECT_THROW(codec.reconstruct(stripe), DataLossError);
}

TEST(Raid5, NoErasureIsNoop) {
  Rng rng(7);
  const auto codec = raid5(2);
  std::vector<Block> data{random_block(rng, 64), random_block(rng, 64)};
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  std::vector<std::optional<Block>> stripe{data[0], data[1], parity[0]};
  codec.reconstruct(stripe);
  EXPECT_EQ(*stripe[0], data[0]);
}

TEST(Raid5, XorDeltaEqualsReencode) {
  Rng rng(8);
  const auto codec = raid5(3);
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, 128));
  std::vector<BlockView> views(data.begin(), data.end());
  Block parity = codec.encode(views)[0];

  // Member 1 changes; update parity incrementally: parity ^= old ^ new.
  xor_into(parity, data[1]);
  data[1] = random_block(rng, 128);
  xor_into(parity, data[1]);

  std::vector<BlockView> views2(data.begin(), data.end());
  EXPECT_EQ(parity, codec.encode(views2)[0]);
}

TEST(Rotation, HolderIndexRotates) {
  EXPECT_EQ(ParityRotation::holder_index(0, 0, 4), 0u);
  EXPECT_EQ(ParityRotation::holder_index(1, 0, 4), 1u);
  EXPECT_EQ(ParityRotation::holder_index(4, 0, 4), 0u);
  EXPECT_EQ(ParityRotation::holder_index(0, 3, 4), 3u);
}

TEST(Rotation, LedgerBalance) {
  RotationLedger ledger(4);
  for (std::size_t g = 0; g < 100; ++g)
    ledger.record(ParityRotation::holder_index(g, 0, 4));
  EXPECT_EQ(ledger.total(), 100u);
  EXPECT_LE(ledger.imbalance(), 25.0 / 24.0 + 1e-9);
}

TEST(Rotation, LedgerImbalanceEdgeCases) {
  RotationLedger empty(3);
  EXPECT_DOUBLE_EQ(empty.imbalance(), 1.0);
  RotationLedger skewed(2);
  skewed.record(0);
  EXPECT_TRUE(std::isinf(skewed.imbalance()));
}

TEST(CodecHelpers, PaddedCopy) {
  Block b{std::byte{1}, std::byte{2}};
  Block padded = padded_copy(b, 5);
  EXPECT_EQ(padded.size(), 5u);
  EXPECT_EQ(padded[0], std::byte{1});
  EXPECT_EQ(padded[4], std::byte{0});
}

}  // namespace
}  // namespace vdc::parity
