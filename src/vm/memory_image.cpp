#include "vm/memory_image.hpp"

#include <algorithm>
#include <cstring>

namespace vdc::vm {

MemoryImage::MemoryImage(Bytes page_size, std::size_t page_count)
    : page_size_(page_size),
      page_count_(page_count),
      data_(page_size * page_count),
      dirty_(page_count, 0),
      extents_(page_count) {
  VDC_REQUIRE(page_size > 0, "page size must be positive");
  VDC_REQUIRE(page_count > 0, "image needs at least one page");
}

std::span<const std::byte> MemoryImage::page(PageIndex i) const {
  VDC_ASSERT(i < page_count_);
  return {data_.data() + i * page_size_, page_size_};
}

void MemoryImage::write(PageIndex i, std::size_t offset,
                        std::span<const std::byte> bytes) {
  VDC_ASSERT(i < page_count_);
  VDC_ASSERT(offset + bytes.size() <= page_size_);
  if (!bytes.empty())  // an empty span may carry a null data()
    std::memcpy(data_.data() + i * page_size_ + offset, bytes.data(),
                bytes.size());
  const auto lo = static_cast<std::uint32_t>(offset);
  const auto hi = static_cast<std::uint32_t>(offset + bytes.size());
  auto& extent = extents_[i];
  if (!dirty_[i]) {
    dirty_[i] = 1;
    ++dirty_count_;
    extent = {lo, hi};
  } else {
    extent = {std::min(extent.first, lo), std::max(extent.second, hi)};
  }
}

void MemoryImage::fill_random(Rng& rng) {
  for (PageIndex p = 0; p < page_count_; ++p) {
    std::byte* page = data_.data() + p * page_size_;
    // Each page opens with one discarded draw: the stream every recorded
    // guest image (and run digest) was filled from. It goes through the
    // out-of-line uniform(): an inlined next() here made this loop ~4x
    // slower (GCC 12, -O3).
    (void)rng.uniform();
    // Fill with 64-bit chunks of PRNG output; deterministic given the rng.
    std::size_t off = 0;
    while (off + 8 <= page_size_) {
      const std::uint64_t v = rng.next();
      std::memcpy(page + off, &v, 8);
      off += 8;
    }
    for (; off < page_size_; ++off)
      page[off] = static_cast<std::byte>(rng.next() & 0xff);
  }
  mark_all_dirty();
}

bool MemoryImage::is_dirty(PageIndex i) const {
  VDC_ASSERT(i < page_count_);
  return dirty_[i] != 0;
}

std::vector<PageIndex> MemoryImage::dirty_pages() const {
  std::vector<PageIndex> out;
  out.reserve(dirty_count_);
  for (PageIndex i = 0; i < page_count_; ++i)
    if (dirty_[i]) out.push_back(i);
  return out;
}

std::pair<std::size_t, std::size_t> MemoryImage::dirty_extent(
    PageIndex i) const {
  VDC_ASSERT(i < page_count_);
  if (!dirty_[i]) return {0, page_size_};
  return {extents_[i].first, extents_[i].second};
}

void MemoryImage::clear_dirty() {
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_count_ = 0;
  ++dirty_generation_;
}

void MemoryImage::mark_all_dirty() {
  std::fill(dirty_.begin(), dirty_.end(), 1);
  std::fill(extents_.begin(), extents_.end(), full_extent());
  dirty_count_ = page_count_;
}

void MemoryImage::mark_dirty(PageIndex i) {
  VDC_ASSERT(i < page_count_);
  extents_[i] = full_extent();
  if (!dirty_[i]) {
    dirty_[i] = 1;
    ++dirty_count_;
  }
}

void MemoryImage::restore(std::span<const std::byte> flat) {
  VDC_REQUIRE(flat.size() == data_.size(),
              "restore image size mismatch");
  std::memcpy(data_.data(), flat.data(), flat.size());
  mark_all_dirty();
}

void MemoryImage::restore_range(std::size_t offset,
                                std::span<const std::byte> bytes) {
  VDC_REQUIRE(offset + bytes.size() <= data_.size(),
              "restore range out of bounds");
  if (bytes.empty()) return;
  const PageIndex first = offset / page_size_;
  const PageIndex last = (offset + bytes.size() - 1) / page_size_;
  for (PageIndex i = first; i <= last; ++i) mark_dirty(i);
  std::memcpy(data_.data() + offset, bytes.data(), bytes.size());
}

}  // namespace vdc::vm
