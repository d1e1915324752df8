#include "checkpoint/delta.hpp"

#include <cstring>

#include "common/assert.hpp"
#include "parity/xor.hpp"

namespace vdc::checkpoint {

PageDelta capture_delta(vm::MemoryImage& image, bool clear_dirty) {
  PageDelta delta;
  delta.page_size = image.page_size();
  delta.pages = image.dirty_pages();
  delta.contents.reserve(delta.pages.size());
  for (vm::PageIndex p : delta.pages) {
    auto view = image.page(p);
    delta.contents.emplace_back(view.begin(), view.end());
  }
  if (clear_dirty) image.clear_dirty();
  return delta;
}

PageDelta diff_images(std::span<const std::byte> old_image,
                      std::span<const std::byte> new_image, Bytes page_size) {
  VDC_REQUIRE(page_size > 0, "diff: page size must be positive");
  VDC_REQUIRE(old_image.size() == new_image.size(),
              "diff: image size mismatch");
  VDC_REQUIRE(old_image.size() % page_size == 0,
              "diff: image not page-aligned");
  PageDelta delta;
  delta.page_size = page_size;
  const std::size_t pages = old_image.size() / page_size;
  for (std::size_t p = 0; p < pages; ++p) {
    const std::size_t off = p * page_size;
    if (std::memcmp(old_image.data() + off, new_image.data() + off,
                    page_size) != 0) {
      delta.pages.push_back(p);
      delta.contents.emplace_back(new_image.begin() + static_cast<std::ptrdiff_t>(off),
                                  new_image.begin() + static_cast<std::ptrdiff_t>(off + page_size));
    }
  }
  return delta;
}

void apply_delta(std::vector<std::byte>& base, const PageDelta& delta) {
  VDC_REQUIRE(delta.pages.size() == delta.contents.size(),
              "delta index/content mismatch");
  for (std::size_t i = 0; i < delta.pages.size(); ++i) {
    const std::size_t off = delta.pages[i] * delta.page_size;
    VDC_REQUIRE(off + delta.page_size <= base.size(),
                "delta page outside base image");
    VDC_REQUIRE(delta.contents[i].size() == delta.page_size,
                "delta page has wrong size");
    std::memcpy(base.data() + off, delta.contents[i].data(),
                delta.page_size);
  }
}

Bytes CompressedDelta::wire_bytes() const {
  Bytes total = 0;
  for (const auto& p : payload) total += p.size();
  // 8 bytes of index metadata per page record.
  total += 8ull * pages.size();
  return total;
}

CompressedDelta compress_delta(const PageDelta& delta,
                               std::span<const std::byte> base) {
  CompressedDelta out;
  out.page_size = delta.page_size;
  out.pages = delta.pages;
  out.payload.reserve(delta.pages.size());
  for (std::size_t i = 0; i < delta.pages.size(); ++i) {
    const std::size_t off = delta.pages[i] * delta.page_size;
    VDC_REQUIRE(off + delta.page_size <= base.size(),
                "compress: page outside base image");
    std::vector<std::byte> diff = delta.contents[i];
    parity::xor_into(diff, std::span<const std::byte>(
                               base.data() + off, delta.page_size));
    EncodedRecord rec = encode_record(diff);
    out.payload.push_back(std::move(rec.bytes));
    out.raw.push_back(rec.raw ? 1 : 0);
    out.trim_payload_bytes += rec.trim_len;
  }
  return out;
}

PageDelta decompress_delta(const CompressedDelta& compressed,
                           std::span<const std::byte> base) {
  PageDelta out;
  out.page_size = compressed.page_size;
  out.pages = compressed.pages;
  out.contents.reserve(compressed.pages.size());
  for (std::size_t i = 0; i < compressed.pages.size(); ++i) {
    const std::size_t off = compressed.pages[i] * compressed.page_size;
    VDC_REQUIRE(off + compressed.page_size <= base.size(),
                "decompress: page outside base image");
    std::vector<std::byte> diff;
    if (compressed.is_raw(i)) {
      const auto& p = compressed.payload[i];
      VDC_REQUIRE(p.size() <= compressed.page_size,
                  "decompress: raw record longer than page");
      diff.assign(p.begin(), p.end());
      diff.resize(compressed.page_size, std::byte{0});
    } else {
      diff = rle_decode(compressed.payload[i], compressed.page_size);
    }
    parity::xor_into(diff, std::span<const std::byte>(
                               base.data() + off, compressed.page_size));
    out.contents.push_back(std::move(diff));
  }
  return out;
}

}  // namespace vdc::checkpoint
