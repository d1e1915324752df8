#pragma once
// Zero-run-length encoding for checkpoint deltas.
//
// The increments shipped between checkpoints are XORs of a page against its
// previous contents — mostly zero except where the guest actually wrote
// (Plank's "compressed differences"). A simple zero-run/literal-run format
// captures nearly all of that redundancy with trivial encode/decode cost.
//
// Wire format: a sequence of records
//   varint zero_len | varint literal_len | literal_len raw bytes
// until the decoded output reaches the expected size.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vdc::checkpoint {

/// Encode `data`. Output never exceeds input by more than a few varints
/// per literal run, and collapses zero runs to ~1-5 bytes.
std::vector<std::byte> rle_encode(std::span<const std::byte> data);

/// Exact size rle_encode(data) would produce, from the same single scan and
/// without writing the encoding.
std::size_t rle_encoded_size(std::span<const std::byte> data);

/// One delta record, already encoded for the wire. Encoding is chosen per
/// record: zero-run RLE of x = old^new, or — when the nonzero bytes cluster
/// at the front — the raw prefix through the last nonzero byte ("trim"),
/// whichever is smaller. The decoder zero-fills past a raw prefix.
struct EncodedRecord {
  std::vector<std::byte> bytes;  // chosen encoding
  bool raw = false;              // true: trimmed raw prefix, not RLE
  std::uint32_t trim_len = 0;    // bytes through the last nonzero byte of x
};

/// What append_record wrote: the chosen encoding's size, its mode and the
/// trim length, as in EncodedRecord.
struct RecordShape {
  std::size_t size = 0;
  bool raw = false;
  std::uint32_t trim_len = 0;
};

/// Append the encoding of one x = old^new record to `out`, where x is zero
/// outside its write extent [lo, hi). Only the extent is scanned: a zero
/// run that reaches hi is the trailing run through the end of x. One scan
/// yields the RLE records, their size and the trim (the end of the last
/// literal run), picking min(RLE, trim) with ties going to RLE; only the
/// chosen encoding is written. The bytes equal encode_record(x) for every
/// such x. Every VDD1 record the protocol ships is encoded here (through
/// DeltaFrameSource::add_record), and the DeltaReader (stream.hpp) is its
/// one decoder.
RecordShape append_record(std::vector<std::byte>& out,
                          std::span<const std::byte> x, std::size_t lo,
                          std::size_t hi);

/// append_record over the whole of x, into a record of its own.
EncodedRecord encode_record(std::span<const std::byte> x);

}  // namespace vdc::checkpoint
