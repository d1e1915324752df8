// Streaming wire-plane coverage: the scatter-gather frame sources must be
// byte-identical to the materializing encoders, and the incremental
// readers must decode any chunking of a frame — down to 1-byte chunks and
// a split at every offset — to exactly the same folds, while rejecting
// every single-bit corruption, surviving a mid-record abort, and undoing
// any fed prefix when the same prefix is folded a second time.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "checkpoint/delta.hpp"
#include "checkpoint/stream.hpp"
#include "checkpoint/wire.hpp"
#include "parity/gf256.hpp"

namespace vdc::checkpoint {
namespace {

constexpr Bytes kPage = 32;
constexpr std::size_t kPages = 6;

struct Fixture {
  std::vector<std::byte> base;  // previous committed image
  std::vector<std::byte> next;  // image after the epoch's writes
  CheckpointDelta cd;
  std::vector<std::byte> frame;  // encode_delta_frame(cd)
};

// A small frame with all three record shapes: sparse (RLE wins), dense
// writes near the page head (trim wins), and untouched pages.
Fixture make_fixture(unsigned seed) {
  Fixture fx;
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  fx.base.resize(kPage * kPages);
  for (auto& b : fx.base) b = static_cast<std::byte>(byte_dist(rng));
  fx.next = fx.base;
  // Page 0: untouched. Page 1: one byte. Page 2: dense prefix (raw mode).
  // Page 3: untouched. Page 4: two sparse bursts. Page 5: full rewrite.
  fx.next[1 * kPage + 17] ^= std::byte{0x40};
  for (std::size_t i = 0; i < 20; ++i)
    fx.next[2 * kPage + i] = static_cast<std::byte>(byte_dist(rng) | 1);
  fx.next[4 * kPage + 2] ^= std::byte{0x01};
  fx.next[4 * kPage + 29] ^= std::byte{0x80};
  for (std::size_t i = 0; i < kPage; ++i)
    fx.next[5 * kPage + i] = static_cast<std::byte>(byte_dist(rng));

  const PageDelta delta = diff_images(fx.base, fx.next, kPage);
  fx.cd = CheckpointDelta{/*vm=*/7, /*epoch=*/3, /*base_epoch=*/2,
                          compress_delta(delta, fx.base)};
  fx.frame = encode_delta_frame(fx.cd);
  return fx;
}

DeltaFrameSource make_source(const Fixture& fx) {
  DeltaFrameSource src(fx.cd.vm, fx.cd.epoch, fx.cd.base_epoch, kPage);
  for (std::size_t i = 0; i < fx.cd.delta.page_count(); ++i) {
    const vm::PageIndex p = fx.cd.delta.pages[i];
    std::vector<std::byte> x(kPage);
    for (std::size_t j = 0; j < kPage; ++j)
      x[j] = fx.base[p * kPage + j] ^ fx.next[p * kPage + j];
    auto rec = encode_record(x);
    src.add_record(p, std::move(rec.bytes), rec.raw, rec.trim_len);
  }
  src.seal();
  return src;
}

TEST(StreamEncode, SourceMatchesMaterializingEncoder) {
  const auto fx = make_fixture(11);
  const auto src = make_source(fx);
  EXPECT_EQ(src.size(), fx.frame.size());
  EXPECT_EQ(src.bytes(), fx.frame) << "scatter-gather layout diverged from "
                                      "encode_delta_frame";
  // trim_frame_size prices the same records under trim-only encoding.
  Bytes trim = 0;
  for (std::size_t i = 0; i < fx.cd.delta.page_count(); ++i) {
    const vm::PageIndex p = fx.cd.delta.pages[i];
    std::vector<std::byte> x(kPage);
    for (std::size_t j = 0; j < kPage; ++j)
      x[j] = fx.base[p * kPage + j] ^ fx.next[p * kPage + j];
    trim += encode_record(x).trim_len;
  }
  EXPECT_EQ(src.trim_frame_size(),
            delta_frame_size(fx.cd.delta.page_count(), trim));
}

TEST(StreamEncode, ForEachRangeYieldsExactSlices) {
  const auto fx = make_fixture(12);
  const auto src = make_source(fx);
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::size_t> off_dist(0, fx.frame.size());
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t lo = off_dist(rng), hi = off_dist(rng);
    if (lo > hi) std::swap(lo, hi);
    std::vector<std::byte> got;
    src.for_each_range(lo, hi, [&](std::span<const std::byte> s) {
      got.insert(got.end(), s.begin(), s.end());
    });
    const std::vector<std::byte> want(fx.frame.begin() + lo,
                                      fx.frame.begin() + hi);
    ASSERT_EQ(got, want) << "range [" << lo << "," << hi << ")";
  }
}

// Feed `frame` to a DeltaReader in the given chunk sizes and return the
// base image with every fold XORed in.
std::vector<std::byte> fold_through(const Fixture& fx,
                                    const std::vector<std::size_t>& cuts) {
  std::vector<std::byte> work = fx.base;
  DeltaReader reader([&](vm::PageIndex page, std::size_t off,
                         std::span<const std::byte> lits) {
    ASSERT_LE(page * kPage + off + lits.size(), work.size());
    for (std::size_t i = 0; i < lits.size(); ++i)
      work[page * kPage + off + i] ^= lits[i];
  });
  std::size_t pos = 0;
  for (std::size_t cut : cuts) {
    reader.feed(std::span<const std::byte>(fx.frame.data() + pos, cut - pos));
    pos = cut;
  }
  reader.feed(
      std::span<const std::byte>(fx.frame.data() + pos, fx.frame.size() - pos));
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.consumed(), fx.frame.size());
  EXPECT_EQ(reader.header().vm, fx.cd.vm);
  EXPECT_EQ(reader.header().epoch, fx.cd.epoch);
  EXPECT_EQ(reader.header().base_epoch, fx.cd.base_epoch);
  EXPECT_EQ(reader.header().page_size, kPage);
  return work;
}

TEST(DeltaIngest, OneByteChunksFoldToNewImage) {
  const auto fx = make_fixture(21);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 1; i < fx.frame.size(); ++i) cuts.push_back(i);
  EXPECT_EQ(fold_through(fx, cuts), fx.next)
      << "1-byte chunking did not reproduce the image";
}

TEST(DeltaIngest, SplitAtEveryOffsetFoldsToNewImage) {
  const auto fx = make_fixture(22);
  for (std::size_t split = 0; split <= fx.frame.size(); ++split) {
    std::vector<std::size_t> cuts;
    if (split > 0 && split < fx.frame.size()) cuts.push_back(split);
    ASSERT_EQ(fold_through(fx, cuts), fx.next) << "split at " << split;
  }
}

TEST(DeltaIngest, MidRecordAbortIsSafe) {
  const auto fx = make_fixture(23);
  // Stop at every prefix; a cancelled stream just stops feeding. The
  // reader must neither throw nor claim completion.
  for (std::size_t stop : {std::size_t{1}, kDeltaFrameHeaderSize + 3,
                           fx.frame.size() / 2, fx.frame.size() - 1}) {
    std::size_t folded = 0;
    DeltaReader reader([&](vm::PageIndex, std::size_t,
                           std::span<const std::byte> lits) {
      folded += lits.size();
    });
    reader.feed(std::span<const std::byte>(fx.frame.data(), stop));
    EXPECT_FALSE(reader.complete()) << "stop=" << stop;
    EXPECT_EQ(reader.consumed(), stop);
    EXPECT_LE(folded, stop);  // folds never exceed bytes actually fed
  }
}

// The protocol aborts an epoch by feeding each stream's consumed prefix
// through a fresh reader with the same fold. That is exact only if a
// reader folds the same bytes for a prefix however it was chunked: here
// the live pass is 1-byte chunks (cuts inside the header, record meta,
// varints and literal runs) and the refold is one span. The coefficient
// fold is the RS holder's; 1 is RAID-5's plain XOR.
TEST(DeltaIngest, RefoldingAnyPrefixRestoresTheBase) {
  const auto fx = make_fixture(26);
  for (const std::uint8_t coeff : {std::uint8_t{1}, std::uint8_t{0x8e}}) {
    std::vector<std::byte> work = fx.base;
    const auto fold = [&](vm::PageIndex page, std::size_t off,
                          std::span<const std::byte> lits) {
      ASSERT_LE(page * kPage + off + lits.size(), work.size());
      parity::gf256::mul_add(
          coeff, reinterpret_cast<const std::uint8_t*>(lits.data()),
          reinterpret_cast<std::uint8_t*>(work.data() + page * kPage + off),
          lits.size());
    };
    bool any_mutated = false;
    for (std::size_t s = 0; s <= fx.frame.size(); ++s) {
      DeltaReader live(fold);
      for (std::size_t i = 0; i < s; ++i)
        live.feed(std::span<const std::byte>(fx.frame.data() + i, 1));
      any_mutated = any_mutated || work != fx.base;
      DeltaReader refold(fold);
      refold.feed(std::span<const std::byte>(fx.frame.data(), s));
      ASSERT_EQ(refold.consumed(), live.consumed());
      ASSERT_EQ(work, fx.base) << "coeff " << int{coeff} << ", prefix " << s;
    }
    EXPECT_TRUE(any_mutated) << "no prefix folded anything; test is vacuous";
  }
}

TEST(DeltaIngest, EverySingleBitFlipIsRejected) {
  const auto fx = make_fixture(24);
  for (std::size_t bit = 0; bit < fx.frame.size() * 8; ++bit) {
    auto bad = fx.frame;
    bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    DeltaReader reader(
        [](vm::PageIndex, std::size_t, std::span<const std::byte>) {});
    const auto feed_all = [&] {
      // Mixed chunk sizes so detection is exercised across carry states.
      std::size_t pos = 0;
      while (pos < bad.size()) {
        const std::size_t n = std::min<std::size_t>(13, bad.size() - pos);
        reader.feed(std::span<const std::byte>(bad.data() + pos, n));
        pos += n;
      }
      // A flip that only the payload CRC catches must not reach complete()
      // silently; all others throw mid-stream.
      ASSERT_FALSE(reader.complete());
    };
    EXPECT_THROW(feed_all(), WireError) << "bit " << bit << " accepted";
  }
}

TEST(DeltaIngest, TrailingBytesRejected) {
  const auto fx = make_fixture(25);
  DeltaReader reader(
      [](vm::PageIndex, std::size_t, std::span<const std::byte>) {});
  reader.feed(fx.frame);
  ASSERT_TRUE(reader.complete());
  const std::byte extra[] = {std::byte{0}};
  EXPECT_THROW(reader.feed(extra), WireError);
}

TEST(FrameReaderTest, ChunkedFullFrameReassembles) {
  Checkpoint cp;
  cp.vm = 9;
  cp.epoch = 4;
  cp.page_size = 64;
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  cp.payload.resize(333);
  for (auto& b : cp.payload) b = static_cast<std::byte>(byte_dist(rng));
  const auto frame = encode_frame(cp);

  std::vector<std::byte> got(cp.payload.size(), std::byte{0});
  FrameReader reader([&](std::size_t off, std::span<const std::byte> bytes) {
    ASSERT_LE(off + bytes.size(), got.size());
    std::copy(bytes.begin(), bytes.end(), got.begin() + off);
  });
  std::size_t pos = 0;
  while (pos < frame.size()) {
    const std::size_t n = std::min<std::size_t>(7, frame.size() - pos);
    reader.feed(std::span<const std::byte>(frame.data() + pos, n));
    pos += n;
  }
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.header().vm, cp.vm);
  EXPECT_EQ(reader.header().epoch, cp.epoch);
  EXPECT_EQ(reader.header().page_size, cp.page_size);
  EXPECT_EQ(got, cp.payload);

  // Payload corruption is caught even when the bytes stream through.
  auto bad = frame;
  bad[kFrameHeaderSize + 100] ^= std::byte{0x10};
  FrameReader bad_reader([](std::size_t, std::span<const std::byte>) {});
  EXPECT_THROW(bad_reader.feed(bad), WireError);
}

}  // namespace
}  // namespace vdc::checkpoint
