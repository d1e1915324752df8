#pragma once
// Page-granular VM memory image.
//
// This is the unit of checkpointing and parity: real bytes, organised in
// pages, with a dirty bitmap maintained on every write (the hypervisor's
// shadow-page-table dirty log).

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace vdc::vm {

using PageIndex = std::size_t;

class MemoryImage {
 public:
  MemoryImage(Bytes page_size, std::size_t page_count);

  Bytes page_size() const { return page_size_; }
  std::size_t page_count() const { return page_count_; }
  Bytes size_bytes() const { return page_size_ * page_count_; }

  /// Read-only view of a page's current contents.
  std::span<const std::byte> page(PageIndex i) const;

  /// Write `bytes` into page `i` at `offset`; marks the page dirty.
  void write(PageIndex i, std::size_t offset, std::span<const std::byte> bytes);

  /// Fill every page with deterministic pseudo-random content.
  void fill_random(Rng& rng);

  // --- dirty log -----------------------------------------------------------
  bool is_dirty(PageIndex i) const;
  std::size_t dirty_count() const { return dirty_count_; }
  /// Byte extent [first, second) of page `i` touched by write() since the
  /// last clear_dirty(). Pages dirtied wholesale (mark_dirty, mark_all_dirty,
  /// restore, fill_random) report the full page, so the extent is always a
  /// safe over-approximation of the bytes that may differ from the last
  /// clear. Meaningful only while the page is dirty; returns the full page
  /// otherwise.
  std::pair<std::size_t, std::size_t> dirty_extent(PageIndex i) const;
  /// Sorted list of dirty page indices.
  std::vector<PageIndex> dirty_pages() const;
  /// Clear the dirty log (checkpoint epoch boundary). Bumps the dirty
  /// generation: each clear consumes the log, and a consumer that cached
  /// state derived from a previous clear can detect that someone else has
  /// consumed the log since (and fall back to a full scan).
  void clear_dirty();
  /// Mark every page dirty (after restore, the first checkpoint is full).
  void mark_all_dirty();
  /// Re-mark a single page dirty (aborted capture returns its pages).
  void mark_dirty(PageIndex i);
  /// Incremented on every clear_dirty(); starts at 0 for a fresh image.
  std::uint64_t dirty_generation() const { return dirty_generation_; }

  /// Flat copy of the whole image.
  std::vector<std::byte> flatten() const { return data_; }

  /// Zero-copy read-only view of the whole image.
  std::span<const std::byte> bytes() const { return data_; }

  /// Replace the entire contents (restore from a reconstructed checkpoint).
  void restore(std::span<const std::byte> flat);

  /// Overwrite [offset, offset + bytes.size()) of the flat image (restore
  /// from scatter-gather checkpoint spans). Touched pages are marked fully
  /// dirty, matching restore().
  void restore_range(std::size_t offset, std::span<const std::byte> bytes);

 private:
  std::pair<std::uint32_t, std::uint32_t> full_extent() const {
    return {0, static_cast<std::uint32_t>(page_size_)};
  }

  Bytes page_size_;
  std::size_t page_count_;
  std::vector<std::byte> data_;
  std::vector<std::uint8_t> dirty_;
  // Sub-page write extents, one per page, meaningful only while the page is
  // dirty: the union of write() ranges since it became dirty, or the full
  // page when a wholesale-dirty path marked it.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extents_;
  std::size_t dirty_count_ = 0;
  std::uint64_t dirty_generation_ = 0;
};

}  // namespace vdc::vm
