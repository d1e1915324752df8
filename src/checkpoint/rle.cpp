#include "checkpoint/rle.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/assert.hpp"

namespace vdc::checkpoint {

namespace {

std::byte* put_varint(std::byte* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::byte>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::byte>(v);
  return out;
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Word-at-a-time helpers. Words are loaded little-endian so the lowest
// set flag is always the lowest-addressed byte.
std::uint64_t load_le(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  if constexpr (std::endian::native == std::endian::big)
    w = __builtin_bswap64(w);
  return w;
}

std::size_t lowest_byte(std::uint64_t flags) {
  return static_cast<std::size_t>(std::countr_zero(flags)) / 8;
}

// First nonzero byte at or after i (n if none), 8 bytes per load.
std::size_t skip_zeros(const std::byte* p, std::size_t i, std::size_t n) {
  for (; i + 8 <= n; i += 8)
    if (const std::uint64_t w = load_le(p + i); w != 0)
      return i + lowest_byte(w);
  while (i < n && p[i] == std::byte{0}) ++i;
  return i;
}

// First zero byte at or after i (n if none). The has-zero-byte test can
// flag a nonzero byte only above a true zero byte (its borrow), so the
// lowest flagged byte is exact.
std::size_t find_zero(const std::byte* p, std::size_t i, std::size_t n) {
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kHighs = 0x8080808080808080ull;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t w = load_le(p + i);
    if (const std::uint64_t z = (w - kOnes) & ~w & kHighs; z != 0)
      return i + lowest_byte(z);
  }
  while (i < n && p[i] != std::byte{0}) ++i;
  return i;
}

// Shared run scanner over x that is zero outside [lo, hi): calls
// emit(zeros, lit_start, lit_len) for each zero-run/literal-run record,
// exactly as rle_encode lays them out for all of x. A literal run starts
// at a nonzero byte and ends at a zero run of 4 or more bytes, or at a
// zero run that reaches the end, or at the end itself. Only [lo, hi) is
// read: a zero run that reaches hi runs on through [hi, n) to the end.
template <typename Emit>
void scan_runs(const std::byte* p, std::size_t lo, std::size_t hi,
               std::size_t n, Emit&& emit) {
  const auto skip = [&](std::size_t at) {
    const std::size_t z = skip_zeros(p, at, hi);
    return z == hi ? n : z;
  };
  std::size_t i = 0;           // start of the record's zero run
  std::size_t lit = skip(lo);  // start of its literal run
  while (i < n) {
    std::size_t end = lit;  // while scanning: a nonzero byte in the run
    std::size_t next = n;   // start of the next record's literal run
    while (end < n) {
      const std::size_t z0 = find_zero(p, end, hi);
      if (z0 == n) {
        end = n;
        break;
      }
      const std::size_t z1 = skip(z0);
      if (z1 - z0 >= 4 || z1 == n) {
        end = z0;
        next = z1;
        break;
      }
      end = z1;
    }
    emit(lit - i, lit, end - lit);
    i = end;
    lit = next;
  }
}

struct Run {
  std::size_t zeros = 0;
  std::size_t lit_start = 0;
  std::size_t lit_len = 0;
};

struct RunList {
  std::vector<Run>& runs;   // thread-local scratch: valid until the next
                            // collect_runs() on this thread
  std::size_t encoded = 0;  // exact rle_encode() size
  std::size_t trim = 0;     // end of the last literal run
};

// One scan of [lo, hi): the records of x, their encoded size and the trim.
// The run list is scratch reused across calls, so encoding a record
// allocates nothing but its output.
RunList collect_runs(std::span<const std::byte> x, std::size_t lo,
                     std::size_t hi) {
  VDC_ASSERT(lo <= hi && hi <= x.size());
  thread_local std::vector<Run> scratch;
  RunList list{scratch};
  list.runs.clear();
  scan_runs(x.data(), lo, hi, x.size(),
            [&](std::size_t zeros, std::size_t lit_start, std::size_t lit_len) {
              list.runs.push_back({zeros, lit_start, lit_len});
              list.encoded +=
                  varint_size(zeros) + varint_size(lit_len) + lit_len;
              if (lit_len > 0) list.trim = lit_start + lit_len;
            });
  return list;
}

// Write the records at `o`, exactly list.encoded bytes.
void write_runs(std::byte* o, std::span<const std::byte> x,
                const RunList& list) {
  std::byte* const end = o + list.encoded;
  for (const Run& run : list.runs) {
    o = put_varint(o, run.zeros);
    o = put_varint(o, run.lit_len);
    if (run.lit_len > 0) std::memcpy(o, x.data() + run.lit_start, run.lit_len);
    o += run.lit_len;
  }
  VDC_ASSERT(o == end);
}

}  // namespace

std::vector<std::byte> rle_encode(std::span<const std::byte> data) {
  const RunList list = collect_runs(data, 0, data.size());
  std::vector<std::byte> out(list.encoded);
  write_runs(out.data(), data, list);
  return out;
}

std::size_t rle_encoded_size(std::span<const std::byte> data) {
  return collect_runs(data, 0, data.size()).encoded;
}

RecordShape append_record(std::vector<std::byte>& out,
                          std::span<const std::byte> x, std::size_t lo,
                          std::size_t hi) {
  const RunList list = collect_runs(x, lo, hi);
  RecordShape shape;
  shape.trim_len = static_cast<std::uint32_t>(list.trim);
  shape.raw = list.trim < list.encoded;
  shape.size = shape.raw ? list.trim : list.encoded;
  if (shape.size == 0) return shape;  // an all-zero x ships as raw, empty
  const std::size_t at = out.size();
  out.resize(at + shape.size);
  if (shape.raw)
    std::memcpy(out.data() + at, x.data(), list.trim);
  else
    write_runs(out.data() + at, x, list);
  return shape;
}

EncodedRecord encode_record(std::span<const std::byte> x) {
  EncodedRecord rec;
  const RecordShape shape = append_record(rec.bytes, x, 0, x.size());
  rec.raw = shape.raw;
  rec.trim_len = shape.trim_len;
  return rec;
}

}  // namespace vdc::checkpoint
