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

// Shared run scanner: calls emit(zeros, lit_start, lit_len) for each
// zero-run/literal-run record, exactly as rle_encode lays them out. A
// literal run starts at a nonzero byte and ends at a zero run of 4 or more
// bytes, or at a zero run that reaches the end, or at the end itself.
template <typename Emit>
void scan_runs(std::span<const std::byte> data, Emit&& emit) {
  const std::byte* p = data.data();
  const std::size_t n = data.size();
  std::size_t i = 0;                      // start of the record's zero run
  std::size_t lit = skip_zeros(p, 0, n);  // start of its literal run
  while (i < n) {
    std::size_t end = lit;  // while scanning: a nonzero byte in the run
    std::size_t next = n;   // start of the next record's literal run
    while (end < n) {
      const std::size_t z0 = find_zero(p, end, n);
      if (z0 == n) {
        end = n;
        break;
      }
      const std::size_t z1 = skip_zeros(p, z0, n);
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

// One scan: the records of `data`, their encoded size and the trim. The
// run list is scratch reused across calls, so encoding a record allocates
// only its output.
RunList collect_runs(std::span<const std::byte> data) {
  thread_local std::vector<Run> scratch;
  RunList list{scratch};
  list.runs.clear();
  scan_runs(data, [&](std::size_t zeros, std::size_t lit_start,
                      std::size_t lit_len) {
    list.runs.push_back({zeros, lit_start, lit_len});
    list.encoded += varint_size(zeros) + varint_size(lit_len) + lit_len;
    if (lit_len > 0) list.trim = lit_start + lit_len;
  });
  return list;
}

// Write the records, exactly list.encoded bytes.
std::vector<std::byte> write_runs(std::span<const std::byte> data,
                                  const RunList& list) {
  std::vector<std::byte> out(list.encoded);
  std::byte* o = out.data();
  for (const Run& run : list.runs) {
    o = put_varint(o, run.zeros);
    o = put_varint(o, run.lit_len);
    if (run.lit_len > 0)
      std::memcpy(o, data.data() + run.lit_start, run.lit_len);
    o += run.lit_len;
  }
  VDC_ASSERT(o == out.data() + out.size());
  return out;
}

}  // namespace

std::vector<std::byte> rle_encode(std::span<const std::byte> data) {
  return write_runs(data, collect_runs(data));
}

std::size_t rle_encoded_size(std::span<const std::byte> data) {
  return collect_runs(data).encoded;
}

EncodedRecord encode_record(std::span<const std::byte> x) {
  const RunList list = collect_runs(x);
  EncodedRecord rec;
  rec.trim_len = static_cast<std::uint32_t>(list.trim);
  rec.raw = list.trim < list.encoded;
  if (rec.raw)
    rec.bytes.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(list.trim));
  else
    rec.bytes = write_runs(x, list);
  return rec;
}

}  // namespace vdc::checkpoint
