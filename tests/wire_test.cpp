// Tests for CRC-32 and the word-blocked zero check. The dispatched CRC-32
// (carry-less folding on x86-64 with PCLMULQDQ, the slice-by-8 table for
// tails and elsewhere) is held to a bit-at-a-time oracle kept here. The
// checkpoint wire frame is covered by stream_ingest_test.

#include <gtest/gtest.h>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "parity/xor.hpp"

namespace vdc {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

TEST(Crc32, KnownVectors) {
  // Classic check value: crc32("123456789") == 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::byte*>(s), 9}), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

// Bit-at-a-time oracle (no tables, no carry-less multiply): the definition
// both production kernels must agree with on every input.
std::uint32_t crc32_bitwise(std::span<const std::byte> data,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint32_t>(b);
    for (int k = 0; k < 8; ++k)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

// Every length from 0 to 300 at every start offset from 0 to 15 crosses
// each path boundary of the dispatched kernel: the table below 64 bytes,
// the four-lane fold from 64, the 16-byte single folds and the table tail.
TEST(Crc32, EveryShortLengthAndOffsetMatchesBitwiseOracle) {
  Rng rng(42);
  const auto data = random_bytes(rng, 300 + 16);
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> s{data.data() + off, len};
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "offset " << off << ", length "
                                            << len;
    }
}

TEST(Crc32, PageAndMiBMatchBitwiseOracleAtEveryOffset) {
  Rng rng(44);
  const auto data = random_bytes(rng, (1u << 20) + 16);
  for (const std::size_t len : {std::size_t{4096}, std::size_t{1} << 20})
    for (std::size_t off = 0; off < 16; ++off) {
      const std::span<const std::byte> s{data.data() + off, len};
      ASSERT_EQ(crc32(s), crc32_bitwise(s)) << "offset " << off << ", length "
                                            << len;
    }
}

// crc32(b, crc32(a)) == crc32(a || b) for every split of a buffer that
// spans the kernel's thresholds, and with a nonzero starting seed.
TEST(Crc32, SeedChainingMatchesBitwiseReference) {
  Rng rng(43);
  const auto data = random_bytes(rng, 777);
  const std::span<const std::byte> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t a = crc32(all.first(split));
    ASSERT_EQ(crc32(all.subspan(split), a), crc32_bitwise(all))
        << "split " << split;
  }
  const std::uint32_t seed = 0x1234abcdu;
  EXPECT_EQ(crc32(all.subspan(100), crc32(all.first(100), seed)),
            crc32_bitwise(all, seed));
}

TEST(Crc32, DetectsSingleBitFlip) {
  Rng rng(2);
  auto data = random_bytes(rng, 256);
  const auto before = crc32(data);
  data[100] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), before);
}

TEST(AllZero, WordBlockedPathsAgreeWithDefinition) {
  // Sizes straddle the 32-byte block and 8-byte word boundaries of the
  // blocked implementation; a lone non-zero byte anywhere must be seen.
  for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 63u, 64u,
                           65u, 256u, 1000u}) {
    std::vector<std::byte> buf(size, std::byte{0});
    EXPECT_TRUE(parity::all_zero(buf)) << "size " << size;
    for (std::size_t pos : {std::size_t{0}, size / 2, size - 1}) {
      if (size == 0) break;
      auto dirty = buf;
      dirty[pos] = std::byte{0x80};
      EXPECT_FALSE(parity::all_zero(dirty))
          << "size " << size << " pos " << pos;
    }
  }
}

}  // namespace
}  // namespace vdc
