#include "checkpoint/stream.hpp"

#include <algorithm>
#include <cstring>

#include "checkpoint/rle.hpp"
#include "common/assert.hpp"
#include "common/crc32.hpp"

namespace vdc::checkpoint {

namespace {

constexpr char kDeltaMagic[4] = {'V', 'D', 'D', '1'};

void put_u32(std::byte* dst, std::uint32_t v) { std::memcpy(dst, &v, 4); }
void put_u64(std::byte* dst, std::uint64_t v) { std::memcpy(dst, &v, 8); }
std::uint32_t get_u32(const std::byte* src) {
  std::uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
std::uint64_t get_u64(const std::byte* src) {
  std::uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

// Emit the overlap of [lo, hi) with a piece occupying [start, start + len)
// of the logical frame.
void emit_overlap(std::size_t lo, std::size_t hi, std::size_t start,
                  const std::byte* data, std::size_t len,
                  const SpanSink& fn) {
  const std::size_t s = std::max(lo, start);
  const std::size_t e = std::min(hi, start + len);
  if (s < e) fn({data + (s - start), e - s});
}

}  // namespace

// ---------------------------------------------------------------------------
// DeltaFrameSource

DeltaFrameSource::DeltaFrameSource(vm::VmId vm, Epoch epoch, Epoch base_epoch,
                                   Bytes page_size)
    : page_size_(page_size) {
  std::memcpy(header_.data(), kDeltaMagic, 4);
  put_u32(header_.data() + 8, vm);
  put_u64(header_.data() + 12, epoch);
  put_u64(header_.data() + 20, base_epoch);
  put_u64(header_.data() + 28, page_size);
}

void DeltaFrameSource::add_record(vm::PageIndex page,
                                  std::span<const std::byte> x, std::size_t lo,
                                  std::size_t hi) {
  VDC_REQUIRE(!sealed_, "delta frame source: add after seal");
  VDC_REQUIRE(!have_page_ || page > last_page_,
              "delta frame source: pages must ascend");
  VDC_REQUIRE(x.size() == page_size_, "delta frame source: x is not one page");
  const std::size_t meta = payload_.size();
  payload_.resize(meta + 8);
  const RecordShape rec = append_record(payload_, x, lo, hi);
  VDC_REQUIRE(rec.size < kRawRecordFlag,
              "delta frame source: record too large");
  put_u32(payload_.data() + meta, static_cast<std::uint32_t>(page));
  put_u32(payload_.data() + meta + 4, static_cast<std::uint32_t>(rec.size) |
                                         (rec.raw ? kRawRecordFlag : 0));
  trim_total_ += 8 + rec.trim_len;
  ++records_;
  have_page_ = true;
  last_page_ = page;
}

void DeltaFrameSource::seal() {
  VDC_REQUIRE(!sealed_, "delta frame source: double seal");
  put_u64(header_.data() + 36, records_);
  put_u64(header_.data() + 44, payload_.size());
  put_u32(header_.data() + 52, crc32(payload_));
  put_u32(header_.data() + 4,
          crc32({header_.data() + 8, kDeltaFrameHeaderSize - 8}));
  sealed_ = true;
}

Bytes DeltaFrameSource::trim_frame_size() const {
  return kDeltaFrameHeaderSize + trim_total_;
}

void DeltaFrameSource::for_each_range(std::size_t lo, std::size_t hi,
                                      const SpanSink& fn) const {
  VDC_REQUIRE(sealed_, "delta frame source: range before seal");
  VDC_ASSERT(lo <= hi && hi <= size());
  if (lo == hi) return;
  emit_overlap(lo, hi, 0, header_.data(), kDeltaFrameHeaderSize, fn);
  emit_overlap(lo, hi, kDeltaFrameHeaderSize, payload_.data(), payload_.size(),
               fn);
}

std::vector<std::byte> DeltaFrameSource::bytes() const {
  std::vector<std::byte> out;
  out.reserve(size());
  for_each_range(0, size(), [&](std::span<const std::byte> s) {
    out.insert(out.end(), s.begin(), s.end());
  });
  return out;
}

// ---------------------------------------------------------------------------
// DeltaReader

DeltaReader::DeltaReader(FoldFn fold) : fold_(std::move(fold)) {}

void DeltaReader::finish_header() {
  const std::byte* h = carry_.data();
  if (std::memcmp(h, kDeltaMagic, 4) != 0)
    throw WireError("delta stream: bad magic");
  if (get_u32(h + 4) != crc32({h + 8, kDeltaFrameHeaderSize - 8}))
    throw WireError("delta stream: header crc mismatch");
  hdr_.vm = get_u32(h + 8);
  hdr_.epoch = get_u64(h + 12);
  hdr_.base_epoch = get_u64(h + 20);
  hdr_.page_size = get_u64(h + 28);
  hdr_.page_count = get_u64(h + 36);
  hdr_.payload_len = get_u64(h + 44);
  expected_payload_crc_ = get_u32(h + 52);
  if (hdr_.page_count > 0 && hdr_.page_size == 0)
    throw WireError("delta stream: zero page size");
  if (hdr_.payload_len == 0) {
    if (hdr_.page_count != 0)
      throw WireError("delta stream: truncated page record");
    if (expected_payload_crc_ != 0)
      throw WireError("delta stream: payload crc mismatch");
    state_ = State::Done;
    return;
  }
  if (hdr_.page_count == 0)
    throw WireError("delta stream: trailing payload bytes");
  if (hdr_.payload_len < 8) throw WireError("delta stream: truncated page record");
  state_ = State::RecMeta;
}

void DeltaReader::fold_crc(const std::byte* to) {
  payload_crc_ = crc32({crc_from_, static_cast<std::size_t>(to - crc_from_)},
                       payload_crc_);
  crc_from_ = to;
}

void DeltaReader::finish_record(const std::byte* at) {
  ++records_done_;
  prev_page_ = page_;
  have_page_ = true;
  carry_len_ = 0;
  if (consumed_ == kDeltaFrameHeaderSize + hdr_.payload_len) {
    if (records_done_ != hdr_.page_count)
      throw WireError("delta stream: page count mismatch");
    fold_crc(at);
    if (payload_crc_ != expected_payload_crc_)
      throw WireError("delta stream: payload crc mismatch");
    state_ = State::Done;
    return;
  }
  if (records_done_ == hdr_.page_count)
    throw WireError("delta stream: trailing payload bytes");
  const std::size_t remaining =
      kDeltaFrameHeaderSize + hdr_.payload_len - consumed_;
  if (remaining < 8) throw WireError("delta stream: truncated page record");
  state_ = State::RecMeta;
}

void DeltaReader::feed(std::span<const std::byte> chunk) {
  const std::byte* p = chunk.data();
  std::size_t n = chunk.size();
  // The payload bytes of a chunk are contiguous: the CRC folds them in one
  // call, when the frame ends or the chunk does.
  crc_from_ = p;
  while (n > 0) {
    switch (state_) {
      case State::Header: {
        const std::size_t take =
            std::min(kDeltaFrameHeaderSize - carry_len_, n);
        std::memcpy(carry_.data() + carry_len_, p, take);
        carry_len_ += take;
        p += take;
        n -= take;
        consumed_ += take;
        if (carry_len_ == kDeltaFrameHeaderSize) {
          finish_header();
          carry_len_ = 0;
          crc_from_ = p;
        }
        break;
      }
      case State::RecMeta: {
        const std::size_t take = std::min(8 - carry_len_, n);
        std::memcpy(carry_.data() + carry_len_, p, take);
        carry_len_ += take;
        p += take;
        n -= take;
        consumed_ += take;
        if (carry_len_ < 8) break;
        carry_len_ = 0;
        page_ = get_u32(carry_.data());
        const std::uint32_t len_mode = get_u32(carry_.data() + 4);
        raw_ = (len_mode & kRawRecordFlag) != 0;
        rec_len_ = len_mode & ~kRawRecordFlag;
        rec_consumed_ = 0;
        decoded_off_ = 0;
        if (have_page_ && page_ <= prev_page_)
          throw WireError("delta stream: page indices not ascending");
        const std::size_t remaining =
            kDeltaFrameHeaderSize + hdr_.payload_len - consumed_;
        if (rec_len_ > remaining)
          throw WireError("delta stream: page record overruns payload");
        if (raw_) {
          if (rec_len_ > hdr_.page_size)
            throw WireError("delta stream: raw record longer than page");
          run_remaining_ = rec_len_;
          state_ = run_remaining_ > 0 ? State::RawData : State::RecMeta;
          if (run_remaining_ == 0) finish_record(p);
        } else {
          if (rec_len_ == 0 && hdr_.page_size > 0)
            throw WireError("delta stream: truncated record");
          varint_val_ = 0;
          varint_shift_ = 0;
          state_ = State::RleZeros;
        }
        break;
      }
      case State::RleZeros:
      case State::RleLits: {
        if (rec_consumed_ == rec_len_)
          throw WireError("delta stream: truncated record");
        const auto b = static_cast<std::uint8_t>(*p);
        ++p;
        --n;
        ++consumed_;
        ++rec_consumed_;
        if (varint_shift_ >= 63 && (b >> 1) != 0)
          throw WireError("delta stream: varint overflow");
        varint_val_ |= static_cast<std::uint64_t>(b & 0x7f) << varint_shift_;
        varint_shift_ += 7;
        if ((b & 0x80) != 0) break;
        if (state_ == State::RleZeros) {
          decoded_off_ += varint_val_;
          if (decoded_off_ > hdr_.page_size)
            throw WireError("delta stream: record output overrun");
          varint_val_ = 0;
          varint_shift_ = 0;
          state_ = State::RleLits;
        } else {
          const std::uint64_t lits = varint_val_;
          varint_val_ = 0;
          varint_shift_ = 0;
          if (decoded_off_ + lits > hdr_.page_size)
            throw WireError("delta stream: record output overrun");
          if (rec_consumed_ + lits > rec_len_)
            throw WireError("delta stream: truncated literals");
          run_remaining_ = static_cast<std::size_t>(lits);
          if (run_remaining_ > 0) {
            state_ = State::RleData;
          } else if (decoded_off_ == hdr_.page_size) {
            if (rec_consumed_ != rec_len_)
              throw WireError("delta stream: trailing record bytes");
            finish_record(p);
          } else if (rec_consumed_ == rec_len_) {
            throw WireError("delta stream: truncated record");
          } else {
            state_ = State::RleZeros;
          }
        }
        break;
      }
      case State::RleData:
      case State::RawData: {
        const std::size_t take = std::min(run_remaining_, n);
        fold_(page_, decoded_off_, {p, take});
        decoded_off_ += take;
        run_remaining_ -= take;
        rec_consumed_ += take;
        p += take;
        n -= take;
        consumed_ += take;
        if (run_remaining_ > 0) break;
        if (state_ == State::RawData) {
          finish_record(p);
        } else if (decoded_off_ == hdr_.page_size) {
          if (rec_consumed_ != rec_len_)
            throw WireError("delta stream: trailing record bytes");
          finish_record(p);
        } else if (rec_consumed_ == rec_len_) {
          throw WireError("delta stream: truncated record");
        } else {
          varint_val_ = 0;
          varint_shift_ = 0;
          state_ = State::RleZeros;
        }
        break;
      }
      case State::Done:
        throw WireError("delta stream: bytes past end of frame");
    }
  }
  if (state_ != State::Header && state_ != State::Done) fold_crc(p);
}

}  // namespace vdc::checkpoint
