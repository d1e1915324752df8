// Differential fuzz for the delta compression layer: rle_encode /
// rle_encoded_size / rle_decode must agree with each other on arbitrary
// buffers, and encode_record must always pick the cheaper of RLE and
// raw-prefix (trim) while staying exactly invertible. The default seed
// budget is small; the nightly job widens it with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "checkpoint/delta.hpp"
#include "checkpoint/rle.hpp"
#include "checkpoint/wire.hpp"
#include "common/assert.hpp"
#include "fuzz_seeds.hpp"

namespace vdc::checkpoint {
namespace {

// Buffers that look like real checkpoint XOR pages: long zero runs broken
// by short literal bursts, with density and length driven by the seed.
std::vector<std::byte> random_xor_page(std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> len_dist(0, 5000);
  std::uniform_int_distribution<int> mode_dist(0, 3);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const std::size_t len = len_dist(rng);
  std::vector<std::byte> out(len, std::byte{0});
  const int mode = mode_dist(rng);
  if (mode == 0) return out;  // all zeros
  if (mode == 1) {            // dense garbage
    for (auto& b : out) b = static_cast<std::byte>(byte_dist(rng));
    return out;
  }
  // Sparse bursts (the common case for dirty-page XORs).
  std::uniform_int_distribution<std::size_t> burst_dist(1, 64);
  std::size_t pos = 0;
  while (pos < len) {
    std::uniform_int_distribution<std::size_t> gap_dist(0, len / 4 + 1);
    pos += gap_dist(rng);
    if (pos >= len) break;
    std::size_t burst = std::min(burst_dist(rng), len - pos);
    for (std::size_t i = 0; i < burst; ++i)
      out[pos + i] = static_cast<std::byte>(byte_dist(rng) | 1);
    pos += burst;
  }
  return out;
}

void check_rle(const std::vector<std::byte>& data) {
  const auto encoded = rle_encode(data);
  EXPECT_EQ(encoded.size(), rle_encoded_size(data))
      << "size predictor disagrees with the encoder, len=" << data.size();
  const auto decoded = rle_decode(encoded, data.size());
  EXPECT_EQ(decoded, data) << "round trip failed, len=" << data.size();
}

TEST(RleFuzz, RoundTripRandomBuffers) {
  const int seeds = fuzz_seed_count(8);
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xA5EDu + static_cast<unsigned>(seed));
    for (int i = 0; i < 64; ++i) check_rle(random_xor_page(rng));
  }
}

TEST(RleFuzz, AdversarialPatterns) {
  // Run lengths straddling every varint width boundary, in both the zero
  // and the literal position, plus degenerate shapes.
  const std::size_t boundaries[] = {0,   1,    2,     127,   128,
                                    129, 16383, 16384, 16385};
  for (std::size_t zeros : boundaries) {
    for (std::size_t lits : boundaries) {
      std::vector<std::byte> data(zeros + lits, std::byte{0});
      for (std::size_t i = 0; i < lits; ++i)
        data[zeros + i] = std::byte{0xAB};
      check_rle(data);
      // Literal run first, zero run second (forces a trailing zero run).
      std::vector<std::byte> flipped(lits + zeros, std::byte{0});
      for (std::size_t i = 0; i < lits; ++i) flipped[i] = std::byte{0xCD};
      check_rle(flipped);
    }
  }
  // Alternating bytes defeat both run kinds at once.
  std::vector<std::byte> alt(777);
  for (std::size_t i = 0; i < alt.size(); ++i)
    alt[i] = (i % 2) ? std::byte{0} : std::byte{0x5A};
  check_rle(alt);
}

TEST(RleFuzz, DecodeRejectsMalformed) {
  std::vector<std::byte> data(300, std::byte{0});
  for (std::size_t i = 100; i < 150; ++i) data[i] = std::byte{7};
  const auto encoded = rle_encode(data);
  // Truncation at every prefix either throws or cannot reproduce the
  // buffer (a shorter expected size is a different decode contract).
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    std::span<const std::byte> prefix(encoded.data(), cut);
    EXPECT_THROW(rle_decode(prefix, data.size()), Error) << "cut=" << cut;
  }
  // Declared output shorter than the streams decode to: overrun.
  EXPECT_THROW(rle_decode(encoded, data.size() - 1), Error);
}

TEST(RleFuzz, EncodeRecordPicksMinimumAndInverts) {
  const int seeds = fuzz_seed_count(8);
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xD1FFu + static_cast<unsigned>(seed));
    for (int i = 0; i < 64; ++i) {
      const auto x = random_xor_page(rng);
      const auto rec = encode_record(x);

      // trim_len is the raw prefix through the last nonzero byte.
      std::size_t last_nonzero = 0;
      for (std::size_t j = 0; j < x.size(); ++j)
        if (x[j] != std::byte{0}) last_nonzero = j + 1;
      ASSERT_EQ(rec.trim_len, last_nonzero);

      // The chosen encoding is min(RLE, trim), ties to RLE.
      const std::size_t rle_size = rle_encoded_size(x);
      ASSERT_EQ(rec.bytes.size(), std::min<std::size_t>(rle_size, rec.trim_len))
          << "record did not pick the cheaper encoding";
      if (rec.raw) {
        ASSERT_LT(rec.bytes.size(), rle_size) << "raw must win ties";
      }

      // Either mode decodes back to x exactly.
      std::vector<std::byte> decoded;
      if (rec.raw) {
        decoded.assign(x.size(), std::byte{0});
        std::copy(rec.bytes.begin(), rec.bytes.end(), decoded.begin());
      } else {
        decoded = rle_decode(rec.bytes, x.size());
      }
      ASSERT_EQ(decoded, x);

      // The mode flag survives the wire length field.
      ASSERT_LT(rec.bytes.size(), kRawRecordFlag);
    }
  }
}

}  // namespace
}  // namespace vdc::checkpoint
