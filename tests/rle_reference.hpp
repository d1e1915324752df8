#pragma once
// Reference RLE decoder: the independent oracle for rle_encode and
// encode_record. The data plane decodes records only through DeltaReader
// (checkpoint/stream.hpp); this byte-at-a-time decoder lives here so the
// tests can check that every encoding inverts exactly.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"

namespace vdc::checkpoint {

inline std::uint64_t get_varint(std::span<const std::byte> in,
                                std::size_t& pos) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (pos >= in.size()) throw Error("rle: truncated varint");
    const auto b = static_cast<std::uint8_t>(in[pos++]);
    if (shift >= 63 && (b >> 1) != 0) throw Error("rle: varint overflow");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

/// Decode an rle_encode() buffer; `expected_size` is the original length.
/// Throws vdc::Error on malformed input.
inline std::vector<std::byte> rle_decode(std::span<const std::byte> encoded,
                                         std::size_t expected_size) {
  std::vector<std::byte> out;
  out.reserve(expected_size);
  std::size_t pos = 0;
  while (out.size() < expected_size) {
    if (pos >= encoded.size()) throw Error("rle: truncated stream");
    const std::uint64_t zeros = get_varint(encoded, pos);
    const std::uint64_t lits = get_varint(encoded, pos);
    if (out.size() + zeros + lits > expected_size)
      throw Error("rle: output overrun");
    out.insert(out.end(), zeros, std::byte{0});
    if (pos + lits > encoded.size()) throw Error("rle: truncated literals");
    out.insert(out.end(), encoded.begin() + static_cast<std::ptrdiff_t>(pos),
               encoded.begin() + static_cast<std::ptrdiff_t>(pos + lits));
    pos += lits;
  }
  if (pos != encoded.size()) throw Error("rle: trailing garbage");
  return out;
}

}  // namespace vdc::checkpoint
