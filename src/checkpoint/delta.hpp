#pragma once
// Page-granular checkpoint increments.
//
// An increment is the set of pages dirtied since the previous checkpoint,
// with their new contents. For transport it can be compressed: each page is
// XORed against its previous contents and zero-run-length encoded, which is
// the "compressed differences" technique the paper inherits from Plank
// (Section II-B.1) and reuses for migration traffic (Section IV-C).

#include <cstdint>
#include <span>
#include <vector>

#include "checkpoint/rle.hpp"
#include "common/units.hpp"
#include "vm/memory_image.hpp"

namespace vdc::checkpoint {

struct PageDelta {
  Bytes page_size = 0;
  std::vector<vm::PageIndex> pages;              // ascending
  std::vector<std::vector<std::byte>> contents;  // new bytes per page

  std::size_t page_count() const { return pages.size(); }
  /// Uncompressed transport size.
  Bytes raw_bytes() const { return page_size * pages.size(); }
};

/// Capture the dirty pages of `image` as a delta. If `clear_dirty`, the
/// dirty log is reset (checkpoint epoch boundary).
PageDelta capture_delta(vm::MemoryImage& image, bool clear_dirty = true);

/// Content diff of two equal-sized flat images: the delta holds every page
/// whose bytes actually changed (a subset of the hypervisor dirty log,
/// since rewrites of identical bytes are excluded). Used by the DVDC
/// protocol, which must stay correct across aborted epochs where the
/// dirty log has already been consumed.
PageDelta diff_images(std::span<const std::byte> old_image,
                      std::span<const std::byte> new_image, Bytes page_size);

/// Apply a delta onto a flat base image in place.
void apply_delta(std::vector<std::byte>& base, const PageDelta& delta);

struct CompressedDelta {
  Bytes page_size = 0;
  std::vector<vm::PageIndex> pages;
  std::vector<std::vector<std::byte>> payload;  // encoded x per page
  // Per-page raw-mode flags, parallel to `pages`. Empty means all-RLE
  // (backward compatible with hand-built deltas).
  std::vector<std::uint8_t> raw;
  // Trim-only transport size of the payloads (sum of trim_len): what a
  // trim-only encoder would have shipped, for compression accounting.
  Bytes trim_payload_bytes = 0;

  std::size_t page_count() const { return pages.size(); }
  bool is_raw(std::size_t i) const { return i < raw.size() && raw[i] != 0; }
  /// Compressed transport size (payload bytes + per-page index overhead).
  Bytes wire_bytes() const;
};

/// Compress `delta` against the previous full image `base` (flat bytes).
CompressedDelta compress_delta(const PageDelta& delta,
                               std::span<const std::byte> base);

/// Invert compress_delta given the same base.
PageDelta decompress_delta(const CompressedDelta& compressed,
                           std::span<const std::byte> base);

}  // namespace vdc::checkpoint
