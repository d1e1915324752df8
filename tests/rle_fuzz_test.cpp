// Differential fuzz for the delta compression layer: rle_encode and
// rle_encoded_size must agree with each other and with the reference
// decoder (rle_reference.hpp) on arbitrary buffers, and encode_record must
// always pick the cheaper of RLE and raw-prefix (trim) while staying
// exactly invertible. Agreement alone would pass a different but still
// decodable encoding, which changes wire bytes, so every encoder is also
// checked byte for byte against a byte-at-a-time reference encoder kept
// here. Capture's extent path, append_record over a write extent [lo, hi)
// of an x that is zero elsewhere, must give encode_record's bytes, mode
// and trim for every such x. Malformed records are the wire decoder's
// business and are covered by stream_ingest_test. The default seed budget
// is small; the nightly job widens it with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "checkpoint/rle.hpp"
#include "checkpoint/stream.hpp"
#include "common/assert.hpp"
#include "fuzz_seeds.hpp"
#include "rle_reference.hpp"

namespace vdc::checkpoint {
namespace {

// --- Reference encoder: the original byte-at-a-time run scanner ----------

void ref_put_varint(std::vector<std::byte>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<std::byte>(v));
}

// Calls emit(zeros, lit_start, lit_len) per record. A literal run ends at a
// zero run of 4 or more bytes, or at a zero run that reaches the end.
template <typename Emit>
void ref_scan_runs(std::span<const std::byte> data, Emit&& emit) {
  std::size_t i = 0;
  while (i < data.size()) {
    std::size_t zeros = 0;
    while (i + zeros < data.size() && data[i + zeros] == std::byte{0})
      ++zeros;
    const std::size_t lit_start = i + zeros;
    std::size_t lit_len = 0;
    std::size_t scan = lit_start;
    while (scan < data.size()) {
      if (data[scan] == std::byte{0}) {
        std::size_t z = 0;
        while (scan + z < data.size() && data[scan + z] == std::byte{0}) ++z;
        if (z >= 4 || scan + z == data.size()) break;
        scan += z;
        lit_len += z;
      } else {
        ++scan;
        ++lit_len;
      }
    }
    emit(zeros, lit_start, lit_len);
    i = lit_start + lit_len;
  }
}

std::vector<std::byte> ref_rle_encode(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  ref_scan_runs(data, [&](std::size_t zeros, std::size_t lit_start,
                          std::size_t lit_len) {
    ref_put_varint(out, zeros);
    ref_put_varint(out, lit_len);
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(lit_start),
               data.begin() + static_cast<std::ptrdiff_t>(lit_start + lit_len));
  });
  return out;
}

EncodedRecord ref_encode_record(std::span<const std::byte> x) {
  EncodedRecord rec;
  std::size_t trim = x.size();
  while (trim > 0 && x[trim - 1] == std::byte{0}) --trim;
  rec.trim_len = static_cast<std::uint32_t>(trim);
  auto rle = ref_rle_encode(x);
  if (rle.size() <= trim) {
    rec.bytes = std::move(rle);
  } else {
    rec.bytes.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(trim));
    rec.raw = true;
  }
  return rec;
}

/// Every encoder equals the reference byte for byte.
void check_against_reference(std::span<const std::byte> data) {
  const auto want = ref_rle_encode(data);
  ASSERT_EQ(rle_encode(data), want) << "rle_encode, len=" << data.size();
  ASSERT_EQ(rle_encoded_size(data), want.size())
      << "rle_encoded_size, len=" << data.size();
  const auto want_rec = ref_encode_record(data);
  const auto rec = encode_record(data);
  ASSERT_EQ(rec.bytes, want_rec.bytes) << "encode_record, len=" << data.size();
  ASSERT_EQ(rec.raw, want_rec.raw) << "encode_record mode, len=" << data.size();
  ASSERT_EQ(rec.trim_len, want_rec.trim_len)
      << "encode_record trim, len=" << data.size();
}

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
  check_against_reference(data);
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

// Small buffers at every alignment, built from the shapes the
// word-at-a-time scanner must get right: zero runs of 0-9 bytes around two
// literal runs of 0-3 bytes (so every gap length meets the 4-byte record
// threshold, and trailing zero runs of 1-8+ bytes occur), with literal
// bytes from {0x01, 0x7F, 0x80, 0xFF} — the values next to a zero that
// trip has-zero-byte tricks (a borrow out of a zero byte turns 0x01 into
// a false zero flag; 0x80 and 0xFF test the high-bit mask).
TEST(RleFuzz, ExhaustiveSmallBuffersMatchReference) {
  constexpr std::array<std::byte, 4> kLits = {std::byte{0x01}, std::byte{0x7F},
                                              std::byte{0x80}, std::byte{0xFF}};
  constexpr std::size_t kMaxLen = 24;
  std::vector<std::byte> storage(kMaxLen + 8);
  std::size_t checked = 0;
  for (std::size_t a = 0; a <= 9; ++a)
    for (std::size_t p = 0; p <= 3; ++p)
      for (std::size_t b = 0; b <= 9; ++b)
        for (std::size_t q = 0; q <= 3; ++q)
          for (std::size_t c = 0; c <= 9; ++c) {
            const std::size_t len = a + p + b + q + c;
            if (len > kMaxLen) continue;
            for (std::size_t phase = 0; phase < kLits.size(); ++phase) {
              std::vector<std::byte> buf(len, std::byte{0});
              std::size_t lit = phase;
              for (std::size_t i = 0; i < p; ++i)
                buf[a + i] = kLits[lit++ % kLits.size()];
              for (std::size_t i = 0; i < q; ++i)
                buf[a + p + b + i] = kLits[lit++ % kLits.size()];
              for (std::size_t align = 0; align < 8; ++align) {
                std::fill(storage.begin(), storage.end(), std::byte{0xEE});
                std::copy(buf.begin(), buf.end(),
                          storage.begin() + static_cast<std::ptrdiff_t>(align));
                check_against_reference({storage.data() + align, len});
                if (HasFatalFailure()) {
                  ADD_FAILURE() << "zeros " << a << "/" << b << "/" << c
                                << ", literals " << p << "/" << q << ", phase "
                                << phase << ", align " << align;
                  return;
                }
                ++checked;
              }
            }
          }
  EXPECT_GT(checked, 100000u);
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

// --- Extent path: append_record over [lo, hi) equals encode_record --------

// x is zero outside [lo, hi). The extent path appends after bytes already
// in the buffer (earlier records of the frame) and leaves them alone.
void check_extent(std::span<const std::byte> x, std::size_t lo,
                  std::size_t hi) {
  const EncodedRecord want = encode_record(x);
  const std::vector<std::byte> earlier = {std::byte{0xEE}, std::byte{0x01}};
  std::vector<std::byte> out = earlier;
  const RecordShape got = append_record(out, x, lo, hi);
  const auto where = [&] {
    return "extent [" + std::to_string(lo) + ", " + std::to_string(hi) +
           ") of " + std::to_string(x.size());
  };
  ASSERT_EQ(got.size, want.bytes.size()) << where();
  ASSERT_EQ(got.raw, want.raw) << where();
  ASSERT_EQ(got.trim_len, want.trim_len) << where();
  ASSERT_EQ(out.size(), earlier.size() + got.size) << where();
  ASSERT_TRUE(std::equal(earlier.begin(), earlier.end(), out.begin()))
      << where();
  const auto appended =
      out.begin() + static_cast<std::ptrdiff_t>(earlier.size());
  ASSERT_TRUE(std::equal(want.bytes.begin(), want.bytes.end(), appended))
      << where();
}

// The extent's content shapes that end a scan differently: a literal that
// ends exactly at hi, zero runs of 3 and of 4 bytes that end at hi (the
// first joins the literal only if more literal follows, the second always
// ends it), short zero gaps inside, and a zero byte at each edge.
enum class Shape { kDense, kLiteralToHi, kThreeZerosAtHi, kFourZerosAtHi,
                   kGaps, kZeroEdges, kCount };

void fill_extent(std::vector<std::byte>& x, std::size_t lo, std::size_t hi,
                 Shape shape, std::mt19937& rng) {
  std::uniform_int_distribution<int> nonzero(1, 255);
  for (std::size_t i = lo; i < hi; ++i)
    x[i] = static_cast<std::byte>(nonzero(rng));
  const std::size_t len = hi - lo;
  const auto zero = [&](std::size_t from, std::size_t n) {
    for (std::size_t i = from; i < from + n && i < hi; ++i) x[i] = std::byte{0};
  };
  switch (shape) {
    case Shape::kThreeZerosAtHi:
      if (len > 3) zero(hi - 3, 3);
      break;
    case Shape::kFourZerosAtHi:
      if (len > 4) zero(hi - 4, 4);
      break;
    case Shape::kGaps:
      for (std::size_t i = lo + 1; i + 1 < hi; i += 5) zero(i, 1 + i % 3);
      break;
    case Shape::kZeroEdges:
      zero(lo, 1);
      if (len > 1) zero(hi - 1, 1);
      break;
    default:  // kDense, kLiteralToHi: nonzero through hi - 1
      break;
  }
}

TEST(RleFuzz, ExtentPathMatchesFullPageEncodeAtTheEdges) {
  std::mt19937 rng(0xE57Eu);
  for (const std::size_t n : {std::size_t{1}, std::size_t{16},
                              std::size_t{64}, std::size_t{4096}}) {
    // Every extent of a small page; the edges of a large one: lo = 0,
    // hi = n, extents shorter than 4 bytes and ones near the page end.
    std::vector<std::size_t> ends;
    for (std::size_t v : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{4}, std::size_t{7}, std::size_t{8},
                          std::size_t{9}, n / 2, n - 9, n - 8, n - 5, n - 4,
                          n - 3, n - 1, n})
      if (v <= n) ends.push_back(v);
    if (n <= 16) {
      ends.clear();
      for (std::size_t v = 0; v <= n; ++v) ends.push_back(v);
    }
    for (const std::size_t lo : ends)
      for (const std::size_t hi : ends) {
        for (const std::size_t extra : {std::size_t{0}, std::size_t{1},
                                        std::size_t{2}, std::size_t{3}}) {
          if (lo > hi || hi + extra > n) continue;
          const std::size_t top = hi + extra;  // hi - lo < 4 included
          for (int s = 0; s < static_cast<int>(Shape::kCount); ++s) {
            std::vector<std::byte> x(n, std::byte{0});
            fill_extent(x, lo, top, static_cast<Shape>(s), rng);
            check_extent(x, lo, top);
            if (HasFatalFailure()) return;
          }
        }
      }
  }
}

TEST(RleFuzz, ExtentPathMatchesFullPageEncodeOnRandomExtents) {
  const int seeds = fuzz_seed_count(8);
  for (int seed = 0; seed < seeds; ++seed) {
    std::mt19937 rng(0xE47Du + static_cast<unsigned>(seed));
    const auto uniform = [&](std::size_t lo, std::size_t hi) {
      return std::uniform_int_distribution<std::size_t>(lo, hi)(rng);
    };
    for (int i = 0; i < 256; ++i) {
      const std::size_t n = uniform(0, 1) ? 4096 : uniform(1, 5000);
      std::size_t lo = uniform(0, n), hi = uniform(0, n);
      if (lo > hi) std::swap(lo, hi);
      std::vector<std::byte> x(n, std::byte{0});
      if (uniform(0, 3) == 0) {
        fill_extent(x, lo, hi, static_cast<Shape>(uniform(0, 5)), rng);
      } else {  // sparse bursts inside the extent, as guest writes leave
        const auto burst = random_xor_page(rng);
        for (std::size_t j = lo; j < hi; ++j)
          x[j] = burst.empty() ? std::byte{0} : burst[j % burst.size()];
      }
      check_extent(x, lo, hi);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace vdc::checkpoint
