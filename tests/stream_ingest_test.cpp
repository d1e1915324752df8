// The one VDD1 encoder and decoder. DeltaFrameSource must lay frames out
// byte for byte as a field-by-field reference writer kept here does, and
// DeltaReader must decode any chunking of a frame — down to 1-byte chunks
// and a split at every offset — to exactly the same folds, and raise the
// same error on a corrupt frame however it is chunked. The reader must
// reject every single-bit corruption, every forged frame whose CRCs were
// recomputed so that only its shape is wrong, and every malformed record
// inside an otherwise valid frame, each with its own message. It must also
// never complete on a truncated frame, survive a mid-record abort, and
// undo any fed prefix when the same prefix is folded a second time. The
// random-frame fuzz widens with VDC_FUZZ_SEEDS in the nightly job.

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "checkpoint/rle.hpp"
#include "checkpoint/stream.hpp"
#include "common/crc32.hpp"
#include "fuzz_seeds.hpp"
#include "parity/gf256.hpp"

namespace vdc::checkpoint {
namespace {

constexpr Bytes kPage = 32;
constexpr std::size_t kPages = 6;

// --- Reference VDD1 writer, field by field from the layout table ----------

struct RefRecord {
  std::uint32_t page = 0;
  bool raw = false;
  std::vector<std::byte> bytes;
};

void put_le(std::byte* at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i)
    at[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
}

/// Recompute the payload CRC (bytes 52..55, over 56..end) and then the
/// header CRC (bytes 4..7, over 8..55).
void reseal(std::vector<std::byte>& frame) {
  put_le(frame.data() + 52,
         crc32(std::span<const std::byte>(frame).subspan(56)), 4);
  put_le(frame.data() + 4,
         crc32(std::span<const std::byte>(frame).subspan(8, 48)), 4);
}

std::vector<std::byte> ref_frame(std::uint32_t vm, std::uint64_t epoch,
                                 std::uint64_t base_epoch,
                                 std::uint64_t page_size,
                                 const std::vector<RefRecord>& recs) {
  std::vector<std::byte> frame(56);
  for (const RefRecord& rec : recs) {
    std::byte meta[8];
    put_le(meta, rec.page, 4);
    put_le(meta + 4, rec.bytes.size() | (rec.raw ? 0x8000'0000u : 0u), 4);
    frame.insert(frame.end(), meta, meta + 8);
    frame.insert(frame.end(), rec.bytes.begin(), rec.bytes.end());
  }
  const char magic[4] = {'V', 'D', 'D', '1'};
  std::memcpy(frame.data(), magic, 4);
  put_le(frame.data() + 8, vm, 4);
  put_le(frame.data() + 12, epoch, 8);
  put_le(frame.data() + 20, base_epoch, 8);
  put_le(frame.data() + 28, page_size, 8);
  put_le(frame.data() + 36, recs.size(), 8);
  put_le(frame.data() + 44, frame.size() - 56, 8);
  reseal(frame);
  return frame;
}

// --- Fixtures: a page diff of two images, encoded per changed page --------

struct Fixture {
  Bytes page_size = kPage;
  std::vector<std::byte> base;  // previous committed image
  std::vector<std::byte> next;  // image after the epoch's writes
  std::vector<RefRecord> recs;  // one per changed page, ascending
  Bytes trim = 0;               // sum of the records' trim lengths
  std::vector<std::byte> frame;  // the reference writer's frame
};

constexpr std::uint32_t kVm = 7;
constexpr Epoch kEpoch = 3, kBaseEpoch = 2;

/// Diff `fx.base` against `fx.next` page by page and encode every changed
/// page's x = old ^ new with encode_record.
void encode_diff(Fixture& fx) {
  const Bytes ps = fx.page_size;
  std::vector<std::byte> x(ps);
  for (std::size_t off = 0; off < fx.base.size(); off += ps) {
    if (std::memcmp(fx.base.data() + off, fx.next.data() + off, ps) == 0)
      continue;
    for (std::size_t i = 0; i < ps; ++i)
      x[i] = fx.base[off + i] ^ fx.next[off + i];
    EncodedRecord rec = encode_record(x);
    fx.trim += rec.trim_len;
    fx.recs.push_back({static_cast<std::uint32_t>(off / ps), rec.raw,
                       std::move(rec.bytes)});
  }
  fx.frame = ref_frame(kVm, kEpoch, kBaseEpoch, ps, fx.recs);
}

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
  encode_diff(fx);
  return fx;
}

/// The frame through the send path capture takes: each record encoded
/// from its page's x over the write extent [first, last] nonzero byte.
DeltaFrameSource make_source(const Fixture& fx) {
  DeltaFrameSource src(kVm, kEpoch, kBaseEpoch, fx.page_size);
  std::vector<std::byte> x(fx.page_size);
  for (const RefRecord& rec : fx.recs) {
    const std::size_t off = rec.page * fx.page_size;
    std::size_t lo = fx.page_size, hi = 0;
    for (std::size_t i = 0; i < fx.page_size; ++i) {
      x[i] = fx.base[off + i] ^ fx.next[off + i];
      if (x[i] != std::byte{0}) {
        lo = std::min(lo, i);
        hi = i + 1;
      }
    }
    src.add_record(rec.page, x, lo, hi);
  }
  src.seal();
  return src;
}

/// Feed `frame` to a fresh reader in one span. Returns the reader's error
/// message, or "" if it completed. A reader that neither completes nor
/// throws on a whole frame reports "incomplete".
std::string reject_reason(const std::vector<std::byte>& frame) {
  DeltaReader reader(
      [](vm::PageIndex, std::size_t, std::span<const std::byte>) {});
  try {
    reader.feed(frame);
  } catch (const WireError& e) {
    return e.what();
  }
  return reader.complete() ? "" : "incomplete";
}

TEST(StreamEncode, SourceMatchesReferenceWriter) {
  const auto fx = make_fixture(11);
  ASSERT_EQ(fx.recs.size(), 4u);  // pages 1, 2, 4 and 5
  EXPECT_TRUE(fx.recs[1].raw) << "the dense prefix should ship raw";
  EXPECT_FALSE(fx.recs[2].raw) << "the sparse bursts should ship RLE";
  const auto src = make_source(fx);
  EXPECT_EQ(src.page_count(), fx.recs.size());
  EXPECT_EQ(src.size(), fx.frame.size());
  EXPECT_EQ(src.bytes(), fx.frame)
      << "scatter-gather layout diverged from the reference writer";
  Bytes payload = 0;
  for (const RefRecord& rec : fx.recs) payload += rec.bytes.size();
  EXPECT_EQ(src.size(), delta_frame_size(fx.recs.size(), payload));
  // trim_frame_size prices the same records under trim-only encoding.
  EXPECT_EQ(src.trim_frame_size(), delta_frame_size(fx.recs.size(), fx.trim));
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
  EXPECT_EQ(reader.header().vm, kVm);
  EXPECT_EQ(reader.header().epoch, kEpoch);
  EXPECT_EQ(reader.header().base_epoch, kBaseEpoch);
  EXPECT_EQ(reader.header().page_size, kPage);
  EXPECT_EQ(reader.header().page_count, fx.recs.size());
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

TEST(DeltaIngest, NoProperPrefixCompletes) {
  const auto fx = make_fixture(27);
  for (std::size_t len = 0; len < fx.frame.size(); ++len) {
    DeltaReader reader(
        [](vm::PageIndex, std::size_t, std::span<const std::byte>) {});
    ASSERT_NO_THROW(
        reader.feed(std::span<const std::byte>(fx.frame.data(), len)))
        << "prefix " << len;
    ASSERT_FALSE(reader.complete()) << "prefix " << len;
  }
  // A frame without records completes exactly at the end of its header.
  const auto empty = ref_frame(kVm, kEpoch, kBaseEpoch, kPage, {});
  ASSERT_EQ(empty.size(), kDeltaFrameHeaderSize);
  DeltaReader reader(
      [](vm::PageIndex, std::size_t, std::span<const std::byte>) {
        ADD_FAILURE() << "an empty frame folded bytes";
      });
  reader.feed(std::span<const std::byte>(empty.data(), empty.size() - 1));
  EXPECT_FALSE(reader.complete());
  reader.feed(std::span<const std::byte>(empty.data() + empty.size() - 1, 1));
  EXPECT_TRUE(reader.complete());
  EXPECT_EQ(reader.header().page_count, 0u);
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

// Property: flipping ANY single bit of a sealed delta frame must make the
// reader throw. A slipped flip would fold garbage into standing parity and
// silently poison every later recovery from that stripe. Also checks that
// the magic, header CRC and payload CRC branches each fire.
TEST(DeltaIngest, EverySingleBitFlipIsRejected) {
  const auto fx = make_fixture(24);
  std::set<std::string> reasons;
  for (std::size_t bit = 0; bit < fx.frame.size() * 8; ++bit) {
    auto bad = fx.frame;
    bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    DeltaReader reader(
        [](vm::PageIndex, std::size_t, std::span<const std::byte>) {});
    try {
      // Mixed chunk sizes so detection is exercised across carry states.
      for (std::size_t pos = 0; pos < bad.size(); pos += 13)
        reader.feed(std::span<const std::byte>(
            bad.data() + pos, std::min<std::size_t>(13, bad.size() - pos)));
      ADD_FAILURE() << "bit " << bit << " accepted (complete="
                    << reader.complete() << ")";
    } catch (const WireError& e) {
      reasons.insert(e.what());
    }
  }
  EXPECT_TRUE(reasons.count("delta stream: bad magic"));
  EXPECT_TRUE(reasons.count("delta stream: header crc mismatch"));
  EXPECT_TRUE(reasons.count("delta stream: payload crc mismatch"));
}

// What one feeding of a frame did: every folded byte with its page and
// offset, in order, and how it ended: "" (complete), "incomplete" or the
// WireError message.
struct FeedTrace {
  std::vector<std::tuple<vm::PageIndex, std::size_t, std::byte>> folds;
  std::string end;
  bool operator==(const FeedTrace&) const = default;
};

// Feed `frame` in chunks of random sizes up to `max_chunk` (1: one byte
// each).
FeedTrace feed_in_chunks(const std::vector<std::byte>& frame,
                         std::size_t max_chunk, std::mt19937& rng) {
  FeedTrace trace;
  DeltaReader reader([&](vm::PageIndex page, std::size_t off,
                         std::span<const std::byte> lits) {
    for (std::size_t i = 0; i < lits.size(); ++i)
      trace.folds.emplace_back(page, off + i, lits[i]);
  });
  try {
    for (std::size_t pos = 0; pos < frame.size();) {
      const std::size_t n = std::min(
          frame.size() - pos,
          std::uniform_int_distribution<std::size_t>(1, max_chunk)(rng));
      reader.feed(std::span<const std::byte>(frame.data() + pos, n));
      pos += n;
    }
    trace.end = reader.complete() ? "" : "incomplete";
  } catch (const WireError& e) {
    trace.end = e.what();
  }
  return trace;
}

// The payload CRC folds once per fed span and is compared at frame end, so
// how a frame is chunked must not change what the reader folds or which
// error it raises: valid frames, every single-bit flip and forged frames
// whose shape is wrong under valid CRCs, each fed whole, in 1-byte chunks
// and in random chunkings.
TEST(DeltaIngest, AnyChunkingGivesTheSameFoldsAndError) {
  std::mt19937 rng(31);
  std::set<std::string> ends;
  const auto check = [&](const std::vector<std::byte>& frame,
                         const std::string& what) {
    const FeedTrace whole = feed_in_chunks(frame, frame.size(), rng);
    ends.insert(whole.end);
    for (const std::size_t max_chunk :
         {std::size_t{1}, std::size_t{2}, std::size_t{9}, std::size_t{64}})
      ASSERT_EQ(feed_in_chunks(frame, max_chunk, rng), whole)
          << what << ", chunks up to " << max_chunk << " bytes";
  };
  for (unsigned seed = 40; seed < 43; ++seed) {
    const auto fx = make_fixture(seed);
    check(fx.frame, "valid frame");
    for (std::size_t bit = 0; bit < fx.frame.size() * 8; ++bit) {
      auto bad = fx.frame;
      bad[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      check(bad, "bit " + std::to_string(bit));
      if (HasFatalFailure()) return;
    }
    auto forged = fx.frame;  // first record overruns, CRCs resealed
    put_le(forged.data() + kDeltaFrameHeaderSize + 4, 1u << 30, 4);
    reseal(forged);
    check(forged, "overrun");
    forged = fx.frame;  // one record more than declared
    put_le(forged.data() + 36, fx.recs.size() - 1, 8);
    reseal(forged);
    check(forged, "extra record");
  }
  EXPECT_TRUE(ends.count(""));
  EXPECT_TRUE(ends.count("delta stream: header crc mismatch"));
  EXPECT_TRUE(ends.count("delta stream: payload crc mismatch"));
  EXPECT_TRUE(ends.count("delta stream: page record overruns payload"));
  EXPECT_TRUE(ends.count("delta stream: trailing payload bytes"));
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

// Forged frames: both CRCs are recomputed, so only the frame's shape is
// wrong, and each shape must be rejected with its own message.
TEST(DeltaIngest, RejectsForgedFrames) {
  const auto fx = make_fixture(28);
  ASSERT_EQ(reject_reason(fx.frame), "");
  const std::size_t first = kDeltaFrameHeaderSize;  // first record's meta
  const std::size_t second = first + 8 + fx.recs[0].bytes.size();

  auto overrun = fx.frame;  // first record claims more than the payload
  put_le(overrun.data() + first + 4, 1u << 30, 4);
  reseal(overrun);
  EXPECT_EQ(reject_reason(overrun),
            "delta stream: page record overruns payload");

  auto unordered = fx.frame;  // second record's page rewound to 0
  ASSERT_GT(fx.recs[0].page, 0u);
  put_le(unordered.data() + second, 0, 4);
  reseal(unordered);
  EXPECT_EQ(reject_reason(unordered),
            "delta stream: page indices not ascending");

  auto long_raw = fx.recs;  // a raw record one byte longer than the page
  long_raw[0].raw = true;
  long_raw[0].bytes.assign(kPage + 1, std::byte{0x11});
  EXPECT_EQ(reject_reason(ref_frame(kVm, kEpoch, kBaseEpoch, kPage, long_raw)),
            "delta stream: raw record longer than page");

  auto extra_record = fx.frame;  // one record more than declared
  put_le(extra_record.data() + 36, fx.recs.size() - 1, 8);
  reseal(extra_record);
  EXPECT_EQ(reject_reason(extra_record),
            "delta stream: trailing payload bytes");

  auto missing_record = fx.frame;  // one record fewer than declared
  put_le(missing_record.data() + 36, fx.recs.size() + 1, 8);
  reseal(missing_record);
  EXPECT_EQ(reject_reason(missing_record), "delta stream: page count mismatch");
}

// A header that declares zero records but carries a payload is trailing
// bytes, whatever the page size: the reader must neither parse the payload
// as a record (page size 32) nor consume it without completing or throwing
// (page size 0).
TEST(DeltaIngest, RejectsZeroRecordFrameWithPayload) {
  for (const Bytes page_size : {kPage, Bytes{0}}) {
    auto frame = ref_frame(kVm, kEpoch, kBaseEpoch, page_size, {});
    frame.resize(frame.size() + 8);  // one record meta's worth of zeros
    put_le(frame.data() + 44, 8, 8);
    reseal(frame);
    EXPECT_EQ(reject_reason(frame), "delta stream: trailing payload bytes")
        << "page size " << page_size;
  }
}

// Malformed RLE records inside an otherwise valid frame (page size 32):
// the record bytes are varint zero-run | varint literal-run | literals.
TEST(DeltaIngest, RejectsMalformedRecords) {
  const auto reason = [](std::vector<std::uint8_t> record) {
    std::vector<std::byte> bytes(record.size());
    std::memcpy(bytes.data(), record.data(), record.size());
    return reject_reason(ref_frame(kVm, kEpoch, kBaseEpoch, kPage,
                                   {{/*page=*/2, /*raw=*/false, bytes}}));
  };
  // Sanity: one well-formed record (10 zeros, 2 literals, 20 zeros).
  EXPECT_EQ(reason({10, 2, 0xAB, 0xCD, 20, 0}), "");
  EXPECT_EQ(reason({10, 2, 0xAB, 0xCD}), "delta stream: truncated record")
      << "record ends short of the page";
  EXPECT_EQ(reason({40, 0}), "delta stream: record output overrun")
      << "zero run past the page";
  EXPECT_EQ(reason({30, 5, 1, 2, 3, 4, 5}),
            "delta stream: record output overrun")
      << "literal run past the page";
  EXPECT_EQ(reason({0, 10, 1, 2, 3}), "delta stream: truncated literals")
      << "literal run longer than the record";
  EXPECT_EQ(reason({32, 0, 0}), "delta stream: trailing record bytes")
      << "bytes left after the page is full";
  EXPECT_EQ(reason({0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                    0x02, 0}),
            "delta stream: varint overflow")
      << "10-byte varint";
}

// Nightly fuzz of the one decoder: random page sizes and counts, a mix of
// write shapes per page, frames built through encode_record and
// DeltaFrameSource and checked against the reference writer, then fed in
// random chunk sizes. Folding with coefficient 1 must yield the new image;
// folding twice with a random coefficient must restore the base.
TEST(DeltaIngest, RandomFramesFoldToTheNewImage) {
  const int seeds = fuzz_seed_count(8);
  constexpr Bytes kPageSizes[] = {1, 2, 7, 32, 100, 513, 4096};
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0x5EEDu + static_cast<unsigned>(seed));
    const auto uniform = [&](std::size_t lo, std::size_t hi) {
      return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
    };
    const auto random_byte = [&] { return static_cast<std::byte>(uniform(0, 255)); };

    Fixture fx;
    fx.page_size = kPageSizes[uniform(0, std::size(kPageSizes) - 1)];
    const std::size_t pages = uniform(1, fx.page_size >= 1024 ? 12 : 48);
    fx.base.resize(fx.page_size * pages);
    for (auto& b : fx.base) b = random_byte();
    fx.next = fx.base;
    for (std::size_t p = 0; p < pages; ++p) {
      std::byte* page = fx.next.data() + p * fx.page_size;
      switch (uniform(0, 4)) {
        case 0:  // untouched
          break;
        case 1:  // rewritten with identical bytes: dirty, but unchanged
          std::memcpy(page, fx.base.data() + p * fx.page_size, fx.page_size);
          break;
        case 2: {  // sparse bursts
          for (std::size_t b = uniform(1, 3); b > 0; --b) {
            const std::size_t at = uniform(0, fx.page_size - 1);
            const std::size_t len = std::min(uniform(1, 16), fx.page_size - at);
            for (std::size_t i = 0; i < len; ++i) page[at + i] = random_byte();
          }
          break;
        }
        case 3: {  // dense prefix
          const std::size_t len = uniform(1, fx.page_size);
          for (std::size_t i = 0; i < len; ++i) page[i] = random_byte();
          break;
        }
        default:  // full rewrite
          for (std::size_t i = 0; i < fx.page_size; ++i) page[i] = random_byte();
      }
    }
    encode_diff(fx);
    const std::string where = "seed " + std::to_string(seed) + ", page size " +
                              std::to_string(fx.page_size) + ", " +
                              std::to_string(pages) + " pages";
    ASSERT_EQ(make_source(fx).bytes(), fx.frame) << where;

    const std::size_t max_chunk = uniform(1, fx.frame.size());
    const auto fold_with = [&](std::vector<std::byte>& work,
                               std::uint8_t coeff) {
      DeltaReader reader([&](vm::PageIndex page, std::size_t off,
                             std::span<const std::byte> lits) {
        ASSERT_LE(page * fx.page_size + off + lits.size(), work.size());
        parity::gf256::mul_add(
            coeff, reinterpret_cast<const std::uint8_t*>(lits.data()),
            reinterpret_cast<std::uint8_t*>(work.data() +
                                            page * fx.page_size + off),
            lits.size());
      });
      for (std::size_t pos = 0; pos < fx.frame.size();) {
        const std::size_t n =
            std::min(uniform(1, max_chunk), fx.frame.size() - pos);
        reader.feed(std::span<const std::byte>(fx.frame.data() + pos, n));
        pos += n;
      }
      EXPECT_TRUE(reader.complete()) << where;
    };

    std::vector<std::byte> work = fx.base;
    fold_with(work, 1);
    ASSERT_EQ(work, fx.next) << where;

    const auto coeff = static_cast<std::uint8_t>(uniform(1, 255));
    work = fx.base;
    fold_with(work, coeff);
    if (!fx.recs.empty()) {
      ASSERT_NE(work, fx.base) << where;
    }
    fold_with(work, coeff);
    ASSERT_EQ(work, fx.base) << where << ", coeff " << int{coeff};
  }
}

}  // namespace
}  // namespace vdc::checkpoint
