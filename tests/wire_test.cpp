// Tests for CRC-32, the checkpoint wire format, and the thread-parallel
// parity kernels.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <string>

#include "checkpoint/wire.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "parity/parallel.hpp"
#include "parity/pool.hpp"
#include "parity/reed_solomon.hpp"
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

TEST(Wire, RoundtripPreservesEverything) {
  Rng rng(3);
  checkpoint::Checkpoint cp;
  cp.vm = 42;
  cp.epoch = 1234567890123ull;
  cp.page_size = 4096;
  cp.payload = random_bytes(rng, 10000);

  const auto frame = checkpoint::encode_frame(cp);
  EXPECT_EQ(frame.size(), checkpoint::frame_size(cp.payload.size()));
  const auto back = checkpoint::decode_frame(frame);
  EXPECT_EQ(back.vm, cp.vm);
  EXPECT_EQ(back.epoch, cp.epoch);
  EXPECT_EQ(back.page_size, cp.page_size);
  EXPECT_EQ(back.payload, cp.payload);
}

TEST(Wire, EmptyPayloadRoundtrips) {
  checkpoint::Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 1;
  cp.page_size = 4096;
  const auto frame = checkpoint::encode_frame(cp);
  EXPECT_EQ(checkpoint::decode_frame(frame).payload.size(), 0u);
}

TEST(Wire, RejectsTruncation) {
  Rng rng(4);
  checkpoint::Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 2;
  cp.page_size = 64;
  cp.payload = random_bytes(rng, 500);
  auto frame = checkpoint::encode_frame(cp);
  frame.resize(frame.size() - 1);
  EXPECT_THROW(checkpoint::decode_frame(frame), checkpoint::WireError);
  EXPECT_THROW(checkpoint::decode_frame({frame.data(), 10}),
               checkpoint::WireError);
}

TEST(Wire, RejectsBadMagicAndCorruptHeader) {
  checkpoint::Checkpoint cp;
  cp.vm = 7;
  cp.epoch = 9;
  cp.page_size = 64;
  cp.payload.assign(64, std::byte{0x5a});
  auto frame = checkpoint::encode_frame(cp);

  auto bad_magic = frame;
  bad_magic[0] = std::byte{'X'};
  EXPECT_THROW(checkpoint::decode_frame(bad_magic), checkpoint::WireError);

  auto bad_header = frame;
  bad_header[12] ^= std::byte{0xff};  // epoch field, covered by header crc
  EXPECT_THROW(checkpoint::decode_frame(bad_header), checkpoint::WireError);
}

TEST(Wire, RejectsPayloadBitFlip) {
  Rng rng(5);
  checkpoint::Checkpoint cp;
  cp.vm = 7;
  cp.epoch = 9;
  cp.page_size = 64;
  cp.payload = random_bytes(rng, 4096);
  auto frame = checkpoint::encode_frame(cp);
  frame[40 + 2000] ^= std::byte{0x01};
  EXPECT_THROW(checkpoint::decode_frame(frame), checkpoint::WireError);
}

TEST(Wire, EverySingleBitFlipIsRejected) {
  // Property: flipping ANY single bit of a sealed frame must make decode
  // throw — the unreliable fabric flips arbitrary bits, and no flip may
  // slip a corrupted image into a guest. Also checks that each distinct
  // rejection branch (magic, header crc, payload crc) actually fires.
  Rng rng(6);
  checkpoint::Checkpoint cp;
  cp.vm = 11;
  cp.epoch = 0xfeedbeefcafe;
  cp.page_size = 128;
  cp.payload = random_bytes(rng, 256);
  const auto frame = checkpoint::encode_frame(cp);
  std::set<std::string> reasons;
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto flipped = frame;
    flipped[bit / 8] ^= std::byte{1} << (bit % 8);
    try {
      checkpoint::decode_frame(flipped);
      FAIL() << "bit " << bit << " flip decoded successfully";
    } catch (const checkpoint::WireError& e) {
      reasons.insert(e.what());
    }
  }
  EXPECT_TRUE(reasons.count("checkpoint frame: bad magic"));
  EXPECT_TRUE(reasons.count("checkpoint frame: header crc mismatch"));
  EXPECT_TRUE(reasons.count("checkpoint frame: payload crc mismatch"));
}

TEST(Wire, RejectsExtension) {
  // A frame longer than its declared payload hits the length branch.
  Rng rng(7);
  checkpoint::Checkpoint cp;
  cp.vm = 1;
  cp.epoch = 2;
  cp.page_size = 64;
  cp.payload = random_bytes(rng, 100);
  auto frame = checkpoint::encode_frame(cp);
  frame.push_back(std::byte{0});
  try {
    checkpoint::decode_frame(frame);
    FAIL() << "extended frame decoded successfully";
  } catch (const checkpoint::WireError& e) {
    EXPECT_STREQ(e.what(), "checkpoint frame: length mismatch");
  }
}

checkpoint::CheckpointDelta sample_delta(Rng& rng) {
  checkpoint::CheckpointDelta cd;
  cd.vm = 23;
  cd.epoch = 9;
  cd.base_epoch = 8;
  cd.delta.page_size = 128;
  cd.delta.pages = {1, 4, 5, 30};
  cd.delta.payload.push_back(random_bytes(rng, 60));
  cd.delta.payload.push_back(random_bytes(rng, 128));
  cd.delta.payload.push_back({});  // a page whose xor RLEs to nothing
  cd.delta.payload.push_back(random_bytes(rng, 17));
  return cd;
}

TEST(DeltaWire, RoundtripPreservesEverything) {
  Rng rng(8);
  const auto cd = sample_delta(rng);
  const auto frame = checkpoint::encode_delta_frame(cd);
  EXPECT_EQ(frame.size(), checkpoint::delta_frame_size(cd.delta));
  EXPECT_EQ(frame.size(),
            checkpoint::delta_frame_size(4, 60 + 128 + 0 + 17));
  const auto back = checkpoint::decode_delta_frame(frame);
  EXPECT_EQ(back.vm, cd.vm);
  EXPECT_EQ(back.epoch, cd.epoch);
  EXPECT_EQ(back.base_epoch, cd.base_epoch);
  EXPECT_EQ(back.delta.page_size, cd.delta.page_size);
  EXPECT_EQ(back.delta.pages, cd.delta.pages);
  EXPECT_EQ(back.delta.payload, cd.delta.payload);
}

TEST(DeltaWire, EmptyDeltaRoundtrips) {
  checkpoint::CheckpointDelta cd;
  cd.vm = 1;
  cd.epoch = 2;
  cd.base_epoch = 1;
  const auto frame = checkpoint::encode_delta_frame(cd);
  EXPECT_EQ(frame.size(), 56u);
  const auto back = checkpoint::decode_delta_frame(frame);
  EXPECT_TRUE(back.delta.pages.empty());
}

TEST(DeltaWire, EverySingleBitFlipIsRejected) {
  // Property: flipping ANY single bit of a sealed delta frame must make
  // decode throw. A slipped flip would fold garbage into standing parity
  // and silently poison every later recovery from that stripe — strictly
  // worse than corrupting one full checkpoint. Also checks each distinct
  // rejection branch fires.
  Rng rng(9);
  const auto cd = sample_delta(rng);
  const auto frame = checkpoint::encode_delta_frame(cd);
  std::set<std::string> reasons;
  for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
    auto flipped = frame;
    flipped[bit / 8] ^= std::byte{1} << (bit % 8);
    try {
      checkpoint::decode_delta_frame(flipped);
      FAIL() << "bit " << bit << " flip decoded successfully";
    } catch (const checkpoint::WireError& e) {
      reasons.insert(e.what());
    }
  }
  EXPECT_TRUE(reasons.count("delta frame: bad magic"));
  EXPECT_TRUE(reasons.count("delta frame: header crc mismatch"));
  EXPECT_TRUE(reasons.count("delta frame: payload crc mismatch"));
}

TEST(DeltaWire, RejectsTruncationAndExtension) {
  Rng rng(10);
  const auto cd = sample_delta(rng);
  auto frame = checkpoint::encode_delta_frame(cd);

  auto shorter = frame;
  shorter.resize(shorter.size() - 1);
  EXPECT_THROW(checkpoint::decode_delta_frame(shorter),
               checkpoint::WireError);
  EXPECT_THROW(checkpoint::decode_delta_frame({frame.data(), 20}),
               checkpoint::WireError);

  auto longer = frame;
  longer.push_back(std::byte{0});
  try {
    checkpoint::decode_delta_frame(longer);
    FAIL() << "extended delta frame decoded successfully";
  } catch (const checkpoint::WireError& e) {
    EXPECT_STREQ(e.what(), "delta frame: length mismatch");
  }
}

TEST(DeltaWire, RejectsMalformedPayloadStructure) {
  // Structural validation beyond the CRCs: decode must reject records
  // that overrun the payload, out-of-order pages, and trailing bytes even
  // when the CRCs are recomputed to match (a forged frame, not a flip).
  const auto reseal = [](std::vector<std::byte> frame) {
    const std::uint32_t pcrc = crc32(
        std::span<const std::byte>(frame.data() + 56, frame.size() - 56));
    std::memcpy(frame.data() + 52, &pcrc, 4);
    const std::uint32_t hcrc =
        crc32(std::span<const std::byte>(frame.data() + 8, 48));
    std::memcpy(frame.data() + 4, &hcrc, 4);
    return frame;
  };
  Rng rng(11);
  const auto good = checkpoint::encode_delta_frame(sample_delta(rng));

  auto overrun = good;
  // First record claims more content than the payload holds.
  const std::uint32_t huge = 1u << 30;
  std::memcpy(overrun.data() + 56 + 4, &huge, 4);
  EXPECT_THROW(checkpoint::decode_delta_frame(reseal(overrun)),
               checkpoint::WireError);

  auto unordered = good;
  // Second record's page index rewound below the first's.
  const std::uint32_t zero = 0;
  std::memcpy(unordered.data() + 56 + 8 + 60, &zero, 4);
  EXPECT_THROW(checkpoint::decode_delta_frame(reseal(unordered)),
               checkpoint::WireError);

  checkpoint::CheckpointDelta empty;
  auto trailing = checkpoint::encode_delta_frame(empty);
  trailing.resize(trailing.size() + 8);  // bytes after the last record
  const std::uint64_t len = 8;
  std::memcpy(trailing.data() + 44, &len, 8);
  try {
    checkpoint::decode_delta_frame(reseal(trailing));
    FAIL() << "trailing payload decoded successfully";
  } catch (const checkpoint::WireError& e) {
    EXPECT_STREQ(e.what(), "delta frame: trailing payload bytes");
  }
}

// dst ^= src sharded over `threads` workers.
void sharded_xor(std::vector<std::byte>& dst,
                 const std::vector<std::byte>& src, unsigned threads) {
  parity::parallel_shards(dst.size(), threads,
                          [&](std::size_t begin, std::size_t n) {
                            parity::xor_into(
                                std::span(dst).subspan(begin, n),
                                std::span(src).subspan(begin, n));
                          });
}

TEST(ParallelParity, MatchesSerialAcrossThreadCounts) {
  Rng rng(6);
  for (std::size_t size : {100u, 4096u, 1u << 20}) {
    const auto src = random_bytes(rng, size);
    const auto base = random_bytes(rng, size);
    auto expect = base;
    parity::xor_into(expect, src);
    for (unsigned threads : {1u, 2u, 4u, 9u}) {
      auto dst = base;
      sharded_xor(dst, src, threads);
      ASSERT_EQ(dst, expect) << "size " << size << " threads " << threads;
    }
  }
}

TEST(ParallelParity, ShardedXorParityMatchesSerialReduce) {
  Rng rng(7);
  std::vector<parity::Block> sources;
  for (int i = 0; i < 5; ++i) sources.push_back(random_bytes(rng, 1 << 19));
  std::vector<parity::BlockView> views(sources.begin(), sources.end());

  parity::Block expect(sources[0].size(), std::byte{0});
  for (const auto& s : sources) parity::xor_into(expect, s);

  // RS(k,1) is RAID-5 parity: its sharded encode is the XOR reduction.
  const parity::ReedSolomonCodec codec(sources.size(), 1);
  for (unsigned threads : {1u, 3u, 8u})
    EXPECT_EQ(codec.encode_parallel(views, threads)[0], expect);
}

TEST(ParallelParity, SmallBuffersStaySerial) {
  // Below the shard threshold the work must still be correct (and not
  // spawn threads, though that part is unobservable here).
  Rng rng(8);
  const auto src = random_bytes(rng, 64);
  auto dst = random_bytes(rng, 64);
  auto expect = dst;
  parity::xor_into(expect, src);
  sharded_xor(dst, src, 16);
  EXPECT_EQ(dst, expect);
}

TEST(ParallelParity, DefaultThreadsSane) {
  const unsigned n = parity::default_parity_threads();
  EXPECT_GE(n, 1u);
  EXPECT_LE(n, 16u);
}

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  parity::ThreadPool pool(4);
  std::vector<int> hits(1000, 0);  // disjoint slots, no synchronisation
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, NestedRunFallsBackToSerial) {
  auto& pool = parity::ThreadPool::shared();
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t) {
    pool.run(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
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
