#include "checkpoint/store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace vdc::checkpoint {

Bytes StoredCheckpoint::size_bytes() const {
  Bytes total = 0;
  for (const auto& p : pages) total += p->size();
  return total;
}

std::span<const std::byte> StoredCheckpoint::page(std::size_t i) const {
  VDC_ASSERT(i < pages.size());
  VDC_ASSERT_MSG(!patched(i), "use for_each_range on patched chunks");
  return {pages[i]->data(), pages[i]->size()};
}

Bytes StoredCheckpoint::patch_bytes() const {
  Bytes total = 0;
  for (const auto& [i, patch] : patches) total += patch.bytes->size();
  return total;
}

void StoredCheckpoint::for_each_range(
    std::size_t i, std::size_t off, std::size_t len,
    const std::function<void(std::size_t, std::span<const std::byte>)>& fn)
    const {
  VDC_ASSERT(i < pages.size());
  const auto& base = *pages[i];
  VDC_ASSERT(off + len <= base.size());
  if (len == 0) return;
  const auto it = patches.find(static_cast<std::uint32_t>(i));
  if (it == patches.end()) {
    fn(off, {base.data() + off, len});
    return;
  }
  const std::size_t plo = it->second.offset;
  const std::size_t phi = plo + it->second.bytes->size();
  const std::size_t end = off + len;
  // Base bytes before the patch window.
  if (off < plo) {
    const std::size_t n = std::min(plo, end) - off;
    fn(off, {base.data() + off, n});
  }
  // Patched bytes.
  const std::size_t olo = std::max(off, plo);
  const std::size_t ohi = std::min(end, phi);
  if (olo < ohi)
    fn(olo, {it->second.bytes->data() + (olo - plo), ohi - olo});
  // Base bytes after the patch window.
  if (end > phi) {
    const std::size_t lo = std::max(off, phi);
    fn(lo, {base.data() + lo, end - lo});
  }
}

void StoredCheckpoint::for_each_span(
    const std::function<void(std::size_t, std::span<const std::byte>)>& fn)
    const {
  std::size_t off = 0;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    const std::size_t base_off = off;
    for_each_range(i, 0, pages[i]->size(),
                   [&](std::size_t in_page, std::span<const std::byte> s) {
                     fn(base_off + in_page, s);
                   });
    off += pages[i]->size();
  }
}

std::vector<std::byte> StoredCheckpoint::payload() const {
  std::vector<std::byte> out(size_bytes());
  for_each_span([&](std::size_t off, std::span<const std::byte> s) {
    std::memcpy(out.data() + off, s.data(), s.size());
  });
  return out;
}

std::vector<std::byte> StoredCheckpoint::padded_payload(
    std::size_t size) const {
  std::vector<std::byte> out(size, std::byte{0});
  for_each_span([&](std::size_t off, std::span<const std::byte> s) {
    VDC_ASSERT(off + s.size() <= size);
    std::memcpy(out.data() + off, s.data(), s.size());
  });
  return out;
}

bool StoredCheckpoint::payload_equals(std::span<const std::byte> flat) const {
  if (flat.size() != size_bytes()) return false;
  bool equal = true;
  for_each_span([&](std::size_t off, std::span<const std::byte> s) {
    if (equal && std::memcmp(flat.data() + off, s.data(), s.size()) != 0)
      equal = false;
  });
  return equal;
}

std::vector<PageRef> StoredCheckpoint::chop(std::span<const std::byte> flat,
                                            Bytes page_size) {
  std::vector<PageRef> pages;
  if (flat.empty()) return pages;
  if (page_size == 0) page_size = flat.size();
  pages.reserve((flat.size() + page_size - 1) / page_size);
  for (std::size_t off = 0; off < flat.size(); off += page_size) {
    const std::size_t n = std::min<std::size_t>(page_size, flat.size() - off);
    pages.push_back(std::make_shared<const std::vector<std::byte>>(
        flat.begin() + off, flat.begin() + off + n));
  }
  return pages;
}

StoredCheckpoint StoredCheckpoint::from(Checkpoint&& cp) {
  StoredCheckpoint out;
  out.vm = cp.vm;
  out.epoch = cp.epoch;
  out.page_size = cp.page_size;
  out.pages = chop(cp.payload, cp.page_size);
  return out;
}

void CheckpointStore::ref_pages(const StoredCheckpoint& cp) {
  for (const auto& p : cp.pages)
    if (++page_refs_[p.get()] == 1) resident_bytes_ += p->size();
  for (const auto& [i, patch] : cp.patches)
    if (++patch_refs_[patch.bytes.get()] == 1)
      patch_resident_bytes_ += patch.bytes->size();
}

void CheckpointStore::unref_pages(const StoredCheckpoint& cp) {
  for (const auto& p : cp.pages) {
    auto it = page_refs_.find(p.get());
    VDC_ASSERT(it != page_refs_.end() && it->second > 0);
    if (--it->second == 0) {
      resident_bytes_ -= p->size();
      page_refs_.erase(it);
    }
  }
  for (const auto& [i, patch] : cp.patches) {
    auto it = patch_refs_.find(patch.bytes.get());
    VDC_ASSERT(it != patch_refs_.end() && it->second > 0);
    if (--it->second == 0) {
      patch_resident_bytes_ -= patch.bytes->size();
      patch_refs_.erase(it);
    }
  }
}

void CheckpointStore::put(const Checkpoint& cp) { put(Checkpoint(cp)); }

void CheckpointStore::put(Checkpoint&& cp) {
  put(StoredCheckpoint::from(std::move(cp)));
}

void CheckpointStore::put(StoredCheckpoint&& cp) {
  auto& epochs = by_vm_[cp.vm];
  auto it = epochs.find(cp.epoch);
  ref_pages(cp);
  if (it != epochs.end()) {
    unref_pages(it->second);
    it->second = std::move(cp);
  } else {
    epochs.emplace(cp.epoch, std::move(cp));
  }
}

const StoredCheckpoint* CheckpointStore::find(vm::VmId vm,
                                              Epoch epoch) const {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end()) return nullptr;
  auto jt = it->second.find(epoch);
  return jt == it->second.end() ? nullptr : &jt->second;
}

std::optional<Epoch> CheckpointStore::latest_epoch(vm::VmId vm) const {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end() || it->second.empty()) return std::nullopt;
  return it->second.rbegin()->first;
}

void CheckpointStore::gc_before(Epoch epoch) {
  for (auto& [vm, epochs] : by_vm_) {
    for (auto it = epochs.begin();
         it != epochs.end() && it->first < epoch;) {
      unref_pages(it->second);
      it = epochs.erase(it);
    }
  }
}

void CheckpointStore::erase(vm::VmId vm, Epoch epoch) {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end()) return;
  auto jt = it->second.find(epoch);
  if (jt == it->second.end()) return;
  unref_pages(jt->second);
  it->second.erase(jt);
}

void CheckpointStore::drop_vm(vm::VmId vm) {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end()) return;
  for (auto& [epoch, cp] : it->second) unref_pages(cp);
  by_vm_.erase(it);
}

std::size_t CheckpointStore::entry_count() const {
  std::size_t n = 0;
  for (const auto& [vm, epochs] : by_vm_) n += epochs.size();
  return n;
}

}  // namespace vdc::checkpoint
