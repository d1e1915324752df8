// Tests for the parity substrate: XOR kernel, RAID-5 parity (RS(k,1)
// through make_codec), RDP double-erasure codec (exhaustive erasure-pair
// sweeps), and rotation.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "parity/codec.hpp"
#include "parity/rdp.hpp"
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

std::unique_ptr<GroupCodec> raid5(std::size_t k) {
  return core::make_codec(core::ParityScheme::Raid5, k);
}

TEST(Raid5, ParityIsXorOfMembers) {
  Rng rng(4);
  const auto codec = raid5(3);
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, 256));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec->encode(views);
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
    ASSERT_EQ(codec->parity_blocks(), 1u);
    EXPECT_EQ(codec->encode(views), std::vector<Block>{expect})
        << "k=" << k << " size=" << size;
    EXPECT_EQ(codec->encode_parallel(views, 4), std::vector<Block>{expect})
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
  auto parity = codec->encode(views);
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
    codec->reconstruct(stripe);
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
  auto parity = codec->encode(views);

  std::vector<std::optional<Block>> stripe;
  for (const auto& d : data) stripe.emplace_back(d);
  stripe.emplace_back(parity[0]);
  const Block original = *stripe[erased];
  stripe[erased] = std::nullopt;
  codec->reconstruct(stripe);
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
  auto parity = codec->encode(views);
  std::vector<std::optional<Block>> stripe;
  for (const auto& d : data) stripe.emplace_back(d);
  stripe.emplace_back(parity[0]);
  stripe[0] = std::nullopt;
  stripe[2] = std::nullopt;
  EXPECT_THROW(codec->reconstruct(stripe), DataLossError);
}

TEST(Raid5, NoErasureIsNoop) {
  Rng rng(7);
  const auto codec = raid5(2);
  std::vector<Block> data{random_block(rng, 64), random_block(rng, 64)};
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec->encode(views);
  std::vector<std::optional<Block>> stripe{data[0], data[1], parity[0]};
  codec->reconstruct(stripe);
  EXPECT_EQ(*stripe[0], data[0]);
}

TEST(Raid5, XorDeltaEqualsReencode) {
  Rng rng(8);
  const auto codec = raid5(3);
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, 128));
  std::vector<BlockView> views(data.begin(), data.end());
  Block parity = codec->encode(views)[0];

  // Member 1 changes; update parity incrementally: parity ^= old ^ new.
  xor_into(parity, data[1]);
  data[1] = random_block(rng, 128);
  xor_into(parity, data[1]);

  std::vector<BlockView> views2(data.begin(), data.end());
  EXPECT_EQ(parity, codec->encode(views2)[0]);
}

TEST(Rdp, NextPrime) {
  EXPECT_EQ(RdpCodec::next_prime_at_least(2), 3u);
  EXPECT_EQ(RdpCodec::next_prime_at_least(3), 3u);
  EXPECT_EQ(RdpCodec::next_prime_at_least(4), 5u);
  EXPECT_EQ(RdpCodec::next_prime_at_least(8), 11u);
  EXPECT_EQ(RdpCodec::next_prime_at_least(14), 17u);
}

TEST(Rdp, ConstructionValidation) {
  EXPECT_THROW(RdpCodec(3, 4), ConfigError);   // p not prime
  EXPECT_THROW(RdpCodec(5, 5), ConfigError);   // k > p-1
  EXPECT_NO_THROW(RdpCodec(4, 5));
  EXPECT_EQ(RdpCodec(4, 5).block_granularity(), 4u);
}

TEST(Rdp, EncodeRejectsBadBlockSize) {
  Rng rng(9);
  RdpCodec codec(2, 5);  // granularity 4
  std::vector<Block> data{random_block(rng, 10), random_block(rng, 10)};
  std::vector<BlockView> views(data.begin(), data.end());
  EXPECT_THROW(codec.encode(views), ConfigError);
}

// Exhaustive double-erasure sweep over (p, k) and every erasure pair.
class RdpPairSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RdpPairSweep, EveryErasurePairRecovers) {
  const auto [p, k] = GetParam();
  Rng rng(10 + p * 31 + k);
  RdpCodec codec(k, p);
  const std::size_t block = (p - 1) * 16;

  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, block));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  ASSERT_EQ(parity.size(), 2u);

  std::vector<Block> all = data;
  all.push_back(parity[0]);
  all.push_back(parity[1]);
  const std::size_t width = k + 2;

  for (std::size_t a = 0; a < width; ++a) {
    for (std::size_t b = a; b < width; ++b) {
      std::vector<std::optional<Block>> stripe(all.begin(), all.end());
      stripe[a] = std::nullopt;
      stripe[b] = std::nullopt;
      ASSERT_NO_THROW(codec.reconstruct(stripe))
          << "p=" << p << " k=" << k << " erased " << a << "," << b;
      EXPECT_EQ(*stripe[a], all[a]) << "erased " << a << "," << b;
      EXPECT_EQ(*stripe[b], all[b]) << "erased " << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrimesAndWidths, RdpPairSweep,
    ::testing::Values(std::make_tuple(3u, 1u), std::make_tuple(3u, 2u),
                      std::make_tuple(5u, 2u), std::make_tuple(5u, 4u),
                      std::make_tuple(7u, 3u), std::make_tuple(7u, 6u),
                      std::make_tuple(13u, 5u), std::make_tuple(13u, 12u)));

TEST(Rdp, TripleErasureThrows) {
  Rng rng(11);
  RdpCodec codec(3, 5);
  const std::size_t block = 4 * 8;
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, block));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);
  std::vector<std::optional<Block>> stripe;
  for (const auto& d : data) stripe.emplace_back(d);
  stripe.emplace_back(parity[0]);
  stripe.emplace_back(parity[1]);
  stripe[0] = std::nullopt;
  stripe[1] = std::nullopt;
  stripe[2] = std::nullopt;
  EXPECT_THROW(codec.reconstruct(stripe), DataLossError);
}

// Small-write oracle: folding old^new through for_each_update_range must
// land parity exactly where a full re-encode of the mutated data does —
// for every (p, k), every column, and ranges at every row-boundary shape.
class RdpUpdateSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(RdpUpdateSweep, InPlaceUpdateMatchesReencode) {
  const auto [p, k] = GetParam();
  Rng rng(300 + p * 17 + k);
  RdpCodec codec(k, p);
  const std::size_t row_bytes = 8;
  const std::size_t block = (p - 1) * row_bytes;

  std::vector<Block> data;
  for (std::size_t i = 0; i < k; ++i) data.push_back(random_block(rng, block));
  std::vector<BlockView> views(data.begin(), data.end());
  auto parity = codec.encode(views);

  // Range shapes: within one row, exactly one row, straddling a row
  // boundary, the whole block, and a tail ending at the block edge.
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, 1},
      {3, row_bytes - 3},
      {row_bytes, row_bytes},
      {row_bytes - 2, 5},
      {0, block},
      {block - 3, 3},
  };

  for (std::size_t col = 0; col < k; ++col) {
    for (const auto& [off, len] : ranges) {
      if (off + len > block) continue;
      Block updated = data[col];
      Block delta(len);
      for (std::size_t i = 0; i < len; ++i) {
        const auto nb = static_cast<std::byte>(rng.next() & 0xff);
        delta[i] = updated[off + i] ^ nb;
        updated[off + i] = nb;
      }

      Block rp = parity[0], dp = parity[1];
      codec.update(col, off, delta, rp, dp);

      std::vector<Block> mutated = data;
      mutated[col] = updated;
      std::vector<BlockView> mviews(mutated.begin(), mutated.end());
      auto expect = codec.encode(mviews);
      EXPECT_EQ(rp, expect[0]) << "p=" << p << " k=" << k << " col=" << col
                               << " off=" << off << " len=" << len;
      EXPECT_EQ(dp, expect[1]) << "p=" << p << " k=" << k << " col=" << col
                               << " off=" << off << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrimesAndWidths, RdpUpdateSweep,
    ::testing::Values(std::make_tuple(3u, 1u), std::make_tuple(3u, 2u),
                      std::make_tuple(5u, 2u), std::make_tuple(5u, 4u),
                      std::make_tuple(7u, 3u), std::make_tuple(7u, 6u),
                      std::make_tuple(13u, 5u), std::make_tuple(13u, 12u)));

TEST(Rdp, UpdateRangeValidation) {
  RdpCodec codec(3, 5);
  const auto nop = [](std::size_t, std::size_t, std::size_t, std::size_t) {};
  EXPECT_THROW(codec.for_each_update_range(3, 0, 4, 32, nop), ConfigError);
  EXPECT_THROW(codec.for_each_update_range(0, 0, 4, 30, nop), ConfigError);
  EXPECT_THROW(codec.for_each_update_range(0, 30, 4, 32, nop), ConfigError);
  EXPECT_NO_THROW(codec.for_each_update_range(0, 0, 0, 32, nop));
}

TEST(Rdp, UpdateRangesNeverStraddleRows) {
  RdpCodec codec(6, 7);
  const std::size_t row_bytes = 16;
  const std::size_t block = 6 * row_bytes;
  codec.for_each_update_range(
      2, 5, block - 9, block,
      [&](std::size_t parity, std::size_t dst, std::size_t, std::size_t len) {
        EXPECT_LE(parity, 1u);
        EXPECT_EQ(dst / row_bytes, (dst + len - 1) / row_bytes);
        EXPECT_LE(dst + len, block);
      });
}

TEST(Rdp, RowParityMatchesRaid5) {
  // RDP's first parity block is plain row XOR: must equal RAID-5 parity.
  Rng rng(12);
  RdpCodec rdp(3, 5);
  const std::size_t block = 4 * 32;
  std::vector<Block> data;
  for (int i = 0; i < 3; ++i) data.push_back(random_block(rng, block));
  std::vector<BlockView> views(data.begin(), data.end());
  EXPECT_EQ(rdp.encode(views)[0], raid5(3)->encode(views)[0]);
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

TEST(CodecHelpers, PaddedCopyAndRoundUp) {
  Block b{std::byte{1}, std::byte{2}};
  Block padded = padded_copy(b, 5);
  EXPECT_EQ(padded.size(), 5u);
  EXPECT_EQ(padded[0], std::byte{1});
  EXPECT_EQ(padded[4], std::byte{0});
  EXPECT_EQ(round_up(10, 4), 12u);
  EXPECT_EQ(round_up(12, 4), 12u);
  EXPECT_EQ(round_up(0, 4), 0u);
}

}  // namespace
}  // namespace vdc::parity
