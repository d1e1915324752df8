// Tests for CRC-32 and the word-blocked zero check. The checkpoint wire
// frame is covered by stream_ingest_test.

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

// Bitwise reference implementation (no tables): the definition the
// slice-by-8 production code must agree with on every input.
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

TEST(Crc32, MatchesBitwiseReferenceOnOneMiB) {
  Rng rng(42);
  const auto data = random_bytes(rng, 1u << 20);
  EXPECT_EQ(crc32(data), crc32_bitwise(data));
  // Unaligned start/length exercise the slice-by-8 head and tail paths.
  const std::span<const std::byte> odd{data.data() + 3, (1u << 20) - 7};
  EXPECT_EQ(crc32(odd), crc32_bitwise(odd));
}

TEST(Crc32, SeedChainingMatchesBitwiseReference) {
  Rng rng(43);
  const auto data = random_bytes(rng, 777);
  const auto part1 = crc32({data.data(), 123});
  EXPECT_EQ(crc32({data.data() + 123, 777 - 123}, part1),
            crc32_bitwise(data));
}

TEST(Crc32, ChunkedEqualsWhole) {
  Rng rng(1);
  const auto data = random_bytes(rng, 1000);
  const auto whole = crc32(data);
  const auto part1 =
      crc32({data.data(), 400});
  const auto chunked = crc32({data.data() + 400, 600}, part1);
  EXPECT_EQ(chunked, whole);
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
