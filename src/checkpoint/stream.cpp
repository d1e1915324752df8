#include "checkpoint/stream.hpp"

#include <algorithm>
#include <cstring>

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
                                   Bytes page_size) {
  std::memcpy(header_.data(), kDeltaMagic, 4);
  put_u32(header_.data() + 8, vm);
  put_u64(header_.data() + 12, epoch);
  put_u64(header_.data() + 20, base_epoch);
  put_u64(header_.data() + 28, page_size);
}

void DeltaFrameSource::add_record(vm::PageIndex page,
                                  std::vector<std::byte> bytes, bool raw,
                                  std::uint32_t trim_len) {
  VDC_REQUIRE(!sealed_, "delta frame source: add after seal");
  VDC_REQUIRE(!have_page_ || page > last_page_,
              "delta frame source: pages must ascend");
  VDC_REQUIRE(bytes.size() < kRawRecordFlag,
              "delta frame source: record too large");
  Rec rec;
  put_u32(rec.meta.data(), static_cast<std::uint32_t>(page));
  put_u32(rec.meta.data() + 4,
          static_cast<std::uint32_t>(bytes.size()) | (raw ? kRawRecordFlag : 0));
  rec.payload = std::move(bytes);
  payload_crc_ = crc32({rec.meta.data(), rec.meta.size()}, payload_crc_);
  payload_crc_ = crc32(rec.payload, payload_crc_);
  const std::size_t prev = ends_.empty() ? 0 : ends_.back();
  ends_.push_back(prev + rec.meta.size() + rec.payload.size());
  trim_total_ += 8 + trim_len;
  recs_.push_back(std::move(rec));
  have_page_ = true;
  last_page_ = page;
}

void DeltaFrameSource::seal() {
  VDC_REQUIRE(!sealed_, "delta frame source: double seal");
  const std::size_t payload_len = ends_.empty() ? 0 : ends_.back();
  put_u64(header_.data() + 36, recs_.size());
  put_u64(header_.data() + 44, payload_len);
  put_u32(header_.data() + 52, payload_crc_);
  put_u32(header_.data() + 4,
          crc32({header_.data() + 8, kDeltaFrameHeaderSize - 8}));
  sealed_ = true;
}

std::size_t DeltaFrameSource::size() const {
  return kDeltaFrameHeaderSize + (ends_.empty() ? 0 : ends_.back());
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
  if (hi <= kDeltaFrameHeaderSize) return;
  const std::size_t plo =
      lo < kDeltaFrameHeaderSize ? 0 : lo - kDeltaFrameHeaderSize;
  const std::size_t phi = hi - kDeltaFrameHeaderSize;
  // First record whose end is past plo.
  auto it = std::upper_bound(ends_.begin(), ends_.end(), plo);
  for (std::size_t i = static_cast<std::size_t>(it - ends_.begin());
       i < recs_.size(); ++i) {
    const std::size_t start = i == 0 ? 0 : ends_[i - 1];
    if (start >= phi) break;
    const Rec& rec = recs_[i];
    emit_overlap(plo, phi, start, rec.meta.data(), rec.meta.size(), fn);
    emit_overlap(plo, phi, start + rec.meta.size(), rec.payload.data(),
                 rec.payload.size(), fn);
  }
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

void DeltaReader::finish_record() {
  ++records_done_;
  prev_page_ = page_;
  have_page_ = true;
  carry_len_ = 0;
  if (consumed_ == kDeltaFrameHeaderSize + hdr_.payload_len) {
    if (records_done_ != hdr_.page_count)
      throw WireError("delta stream: page count mismatch");
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
        }
        break;
      }
      case State::RecMeta: {
        const std::size_t take = std::min(8 - carry_len_, n);
        std::memcpy(carry_.data() + carry_len_, p, take);
        payload_crc_ = crc32({p, take}, payload_crc_);
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
          if (run_remaining_ == 0) finish_record();
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
        payload_crc_ = crc32({p, 1}, payload_crc_);
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
            finish_record();
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
        payload_crc_ = crc32({p, take}, payload_crc_);
        fold_(page_, decoded_off_, {p, take});
        decoded_off_ += take;
        run_remaining_ -= take;
        rec_consumed_ += take;
        p += take;
        n -= take;
        consumed_ += take;
        if (run_remaining_ > 0) break;
        if (state_ == State::RawData) {
          finish_record();
        } else if (decoded_off_ == hdr_.page_size) {
          if (rec_consumed_ != rec_len_)
            throw WireError("delta stream: trailing record bytes");
          finish_record();
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
}

}  // namespace vdc::checkpoint
