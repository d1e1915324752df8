#pragma once
// The checkpoint wire plane: the one place that knows the VDD1 delta frame.
//
// A parity delta crosses the fabric as one frame per member VM:
//
//   offset  size  field
//        0     4  magic  "VDD1"
//        4     4  header crc32 (over bytes 8..55)
//        8     4  vm id
//       12     8  epoch
//       20     8  base epoch (the committed epoch the delta applies over)
//       28     8  page size
//       36     8  page count
//       44     8  payload length
//       52     4  payload crc32
//       56     n  payload: page_count records of
//                   u32 page index, u32 record length, encoded(new xor old)
//
// Bit 31 of the record length is the encoding mode: clear = zero-run RLE,
// set = raw prefix of the xor through its last nonzero byte (the decoder
// zero-fills the remainder of the page). The low 31 bits are the encoded
// byte count either way. The header is fully covered by magic + CRCs, so
// every single-bit flip anywhere in a frame is rejected
// (stream_ingest_test proves this exhaustively).
//
// Neither side copies or reassembles a whole frame:
//
//  * DeltaFrameSource — the SEND side. A frame is held as its header
//    bytes plus one payload buffer: capture encodes each dirty page's
//    record straight onto its end, scanning only the page's write extent
//    (append_record, rle.hpp). `for_each_range` yields any byte range of
//    the logical frame as at most two views, so ChunkedStream payloads
//    come straight out of the buffer. seal() computes each CRC in one call.
//
//  * DeltaReader — the RECEIVE side. Chunks are fed in arrival order and
//    validated incrementally (magic and header CRC as soon as the header
//    completes, record shape as each record closes, the payload CRC at
//    frame end). The payload CRC folds once per contiguous span a feed
//    consumes, not per field, so it runs at the CRC kernel's bulk speed
//    (crc32.hpp). Records are decoded on the fly into fold callbacks
//    for the literal bytes only — zero runs just advance the page offset —
//    so parity folds run straight off the receive buffers. The only
//    per-stream state is a small fixed carry (partial header/record-meta/
//    varint across a chunk boundary), giving bounded memory per stream
//    regardless of frame size.
//
// Abort safety: readers never touch parity themselves — the fold callback
// does — and a stream cancelled mid-frame simply stops feeding. A reader
// folds every literal byte of the prefix it was fed, however that prefix
// was chunked, so feeding the same prefix through a fresh reader folds the
// same bytes again; with a characteristic-2 fold (XOR, GF(2^8) mul_add)
// that restores the target exactly, which is how the protocol aborts.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "checkpoint/store.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"

namespace vdc::checkpoint {

/// A frame failed magic/CRC/shape validation.
class WireError : public Error {
 public:
  using Error::Error;
};

inline constexpr std::size_t kDeltaFrameHeaderSize = 56;
/// Bit 31 of a delta record's length field: raw-prefix mode.
inline constexpr std::uint32_t kRawRecordFlag = 0x8000'0000u;

/// Delta frame size for `page_count` records totalling `payload_bytes` of
/// compressed content (header is 56 bytes, each record adds 8).
constexpr std::size_t delta_frame_size(std::size_t page_count,
                                       std::size_t payload_bytes) {
  return kDeltaFrameHeaderSize + 8 * page_count + payload_bytes;
}

/// Visitor for a byte range of a logical frame: called with consecutive
/// spans covering the range in order.
using SpanSink = std::function<void(std::span<const std::byte>)>;

/// Send-side view of one VDD1 delta frame: header bytes plus one payload
/// buffer. Records are encoded onto the buffer in ascending page order,
/// then seal() finalizes the CRCs.
class DeltaFrameSource {
 public:
  DeltaFrameSource(vm::VmId vm, Epoch epoch, Epoch base_epoch,
                   Bytes page_size);

  /// Encode page `page`'s x = old^new (page_size bytes, zero outside its
  /// write extent [lo, hi)) as the next record: its meta and its encoding
  /// (append_record) go onto the end of the payload. Pages must ascend.
  void add_record(vm::PageIndex page, std::span<const std::byte> x,
                  std::size_t lo, std::size_t hi);

  /// Finalize header + payload CRCs. No add_record after this.
  void seal();
  bool sealed() const { return sealed_; }

  std::size_t page_count() const { return records_; }
  /// Total frame size in bytes (valid any time; exact after seal()).
  std::size_t size() const { return kDeltaFrameHeaderSize + payload_.size(); }
  /// What a trim-only encoder would have shipped for the same records
  /// (header + per-record meta + trim lengths) — compression accounting.
  Bytes trim_frame_size() const;

  /// Yield frame bytes [lo, hi) as a sequence of (at most two) spans, in
  /// order. The spans point into this source; they stay valid as long as
  /// it lives.
  void for_each_range(std::size_t lo, std::size_t hi,
                      const SpanSink& fn) const;

  /// Materialize the whole frame (tests and benchmarks).
  std::vector<std::byte> bytes() const;

 private:
  std::array<std::byte, kDeltaFrameHeaderSize> header_{};
  // The records back to back: u32 page, u32 len|mode, encoding.
  std::vector<std::byte> payload_;
  Bytes page_size_ = 0;
  std::size_t records_ = 0;
  Bytes trim_total_ = 0;
  bool sealed_ = false;
  bool have_page_ = false;
  vm::PageIndex last_page_ = 0;
};

/// Receive-side incremental VDD1 parser. Feed chunks in frame order; emits
/// fold callbacks for literal bytes as they arrive. Throws WireError on any
/// corruption, as early as it is detectable.
class DeltaReader {
 public:
  struct Header {
    vm::VmId vm = 0;
    Epoch epoch = 0;
    Epoch base_epoch = 0;
    Bytes page_size = 0;
    std::uint64_t page_count = 0;
    std::uint64_t payload_len = 0;
  };

  /// fold(page, offset_in_page, literal bytes): XOR `literal bytes` into
  /// the page at that offset. Spans point into the fed chunk; consume
  /// within the callback.
  using FoldFn =
      std::function<void(vm::PageIndex, std::size_t, std::span<const std::byte>)>;

  explicit DeltaReader(FoldFn fold);

  /// Consume the next chunk of the frame. Throws WireError on corruption
  /// or on bytes past the end of the frame.
  void feed(std::span<const std::byte> chunk);

  const Header& header() const { return hdr_; }
  bool complete() const { return state_ == State::Done; }
  /// Bytes of frame consumed so far.
  std::size_t consumed() const { return consumed_; }

  /// Upper bound on carried bytes between feeds (partial header / record
  /// meta / varint). The reader never buffers payload.
  static constexpr std::size_t kMaxCarry = kDeltaFrameHeaderSize;

 private:
  enum class State {
    Header,    // first 56 bytes
    RecMeta,   // u32 page, u32 len|mode
    RleZeros,  // varint zero-run length
    RleLits,   // varint literal-run length
    RleData,   // literal bytes
    RawData,   // raw-prefix bytes
    Done,
  };

  void finish_header();
  void finish_record(const std::byte* at);
  void fold_crc(const std::byte* to);

  FoldFn fold_;
  State state_ = State::Header;
  Header hdr_;

  std::array<std::byte, kMaxCarry> carry_{};
  std::size_t carry_len_ = 0;

  std::size_t consumed_ = 0;       // total frame bytes consumed
  std::uint32_t payload_crc_ = 0;  // running CRC over payload bytes
  // Inside feed(): the first consumed payload byte of the chunk that
  // payload_crc_ does not cover yet.
  const std::byte* crc_from_ = nullptr;
  std::uint32_t expected_payload_crc_ = 0;
  std::uint64_t records_done_ = 0;

  // Current record.
  vm::PageIndex page_ = 0;
  bool raw_ = false;
  std::size_t rec_len_ = 0;        // encoded payload length of the record
  std::size_t rec_consumed_ = 0;   // encoded bytes consumed so far
  std::size_t decoded_off_ = 0;    // decoded position within the page
  std::size_t run_remaining_ = 0;  // literal/raw bytes still expected
  std::uint64_t varint_val_ = 0;   // partial varint accumulator
  int varint_shift_ = 0;
  bool have_page_ = false;
  vm::PageIndex prev_page_ = 0;
};

}  // namespace vdc::checkpoint
