#include "checkpoint/store.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/assert.hpp"

namespace vdc::checkpoint {

Bytes StoredCheckpoint::size_bytes() const {
  Bytes total = 0;
  for (const PageSlot& slot : pages) total += slot.base->size();
  return total;
}

std::span<const std::byte> StoredCheckpoint::page(std::size_t i) const {
  VDC_ASSERT(i < pages.size());
  VDC_ASSERT_MSG(!patched(i), "use for_each_range on patched chunks");
  return pages[i].base->bytes();
}

Bytes StoredCheckpoint::patch_bytes() const {
  Bytes total = 0;
  for (const PageSlot& slot : pages)
    if (slot.patch) total += slot.patch->size();
  return total;
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

std::vector<PageSlot> StoredCheckpoint::chop(std::span<const std::byte> flat,
                                             Bytes page_size) {
  std::vector<PageSlot> pages;
  if (flat.empty()) return pages;
  if (page_size == 0) page_size = flat.size();
  pages.reserve((flat.size() + page_size - 1) / page_size);
  for (std::size_t off = 0; off < flat.size(); off += page_size) {
    const std::size_t n = std::min<std::size_t>(page_size, flat.size() - off);
    pages.push_back({make_page(flat.subspan(off, n)), nullptr, 0});
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

// --- residency ---------------------------------------------------------------
//
// One slot position (a page's base or its patch) across three consecutive
// epochs before, cp, after of one VM. `cp` forms a run of its own unless a
// neighbour holds the same buffer there; a run the neighbours share is
// split by a `cp` that holds something else. Counting `cp` out reverses
// exactly what counting it in did.

namespace {

const PageSlot* slot_at(const StoredCheckpoint* cp, std::size_t i) {
  return cp != nullptr && i < cp->pages.size() ? &cp->pages[i] : nullptr;
}

const PageBuffer* base_of(const PageSlot* slot) {
  return slot != nullptr ? slot->base.get() : nullptr;
}

const PageBuffer* patch_of(const PageSlot* slot) {
  return slot != nullptr ? slot->patch.get() : nullptr;
}

// Calls fn(buf, patch) for each buffer whose run count changes when `cp`
// comes in or goes out between `before` and `after`.
template <typename Fn>
void for_each_boundary(const StoredCheckpoint& cp,
                       const StoredCheckpoint* before,
                       const StoredCheckpoint* after, Fn&& fn) {
  std::size_t n = cp.pages.size();
  if (before != nullptr) n = std::max(n, before->pages.size());
  if (after != nullptr) n = std::max(n, after->pages.size());
  const auto position = [&](const PageBuffer* x, const PageBuffer* l,
                            const PageBuffer* r, bool patch) {
    if (x != nullptr && x != l && x != r) fn(*x, patch);
    if (l != nullptr && l == r && l != x) fn(*l, patch);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const PageSlot* x = slot_at(&cp, i);
    const PageSlot* l = slot_at(before, i);
    const PageSlot* r = slot_at(after, i);
    position(base_of(x), base_of(l), base_of(r), false);
    position(patch_of(x), patch_of(l), patch_of(r), true);
  }
}

}  // namespace

void CheckpointStore::count(const PageBuffer& buf, bool patch, bool join) {
  Bytes& resident = patch ? patch_resident_bytes_ : resident_bytes_;
  if (join) {
    VDC_ASSERT(buf.store_ == nullptr || buf.store_ == this);
    if (buf.runs_++ == 0) {
      buf.store_ = this;
      resident += buf.size();
    }
  } else {
    VDC_ASSERT(buf.store_ == this && buf.runs_ > 0);
    if (--buf.runs_ == 0) {
      buf.store_ = nullptr;
      resident -= buf.size();
    }
  }
}

bool CheckpointStore::joinable(const StoredCheckpoint& cp,
                               const StoredCheckpoint* before,
                               const StoredCheckpoint* after) const {
  bool ok = true;
  for_each_boundary(cp, before, after, [&](const PageBuffer& buf, bool) {
    if (buf.store_ != nullptr && buf.store_ != this) ok = false;
  });
  return ok;
}

void CheckpointStore::relink(const StoredCheckpoint& cp,
                             const StoredCheckpoint* before,
                             const StoredCheckpoint* after, bool join) {
  for_each_boundary(cp, before, after, [&](const PageBuffer& buf, bool patch) {
    count(buf, patch, join);
  });
}

void CheckpointStore::remove(Epochs& epochs, Epochs::iterator it) {
  const StoredCheckpoint* before =
      it == epochs.begin() ? nullptr : &std::prev(it)->second;
  const auto next = std::next(it);
  const StoredCheckpoint* after =
      next == epochs.end() ? nullptr : &next->second;
  relink(it->second, before, after, /*join=*/false);
  epochs.erase(it);
}

CheckpointStore::~CheckpointStore() { clear(); }

void CheckpointStore::clear() {
  for (auto& [vm, epochs] : by_vm_)
    for (auto& [epoch, cp] : epochs)
      for (const PageSlot& slot : cp.pages)
        for (const PageBuffer* buf : {slot.base.get(), slot.patch.get()})
          if (buf != nullptr) {
            buf->runs_ = 0;
            buf->store_ = nullptr;
          }
  by_vm_.clear();
  resident_bytes_ = 0;
  patch_resident_bytes_ = 0;
}

// --- entries -----------------------------------------------------------------

void CheckpointStore::put(const Checkpoint& cp) { put(Checkpoint(cp)); }

void CheckpointStore::put(Checkpoint&& cp) {
  put(StoredCheckpoint::from(std::move(cp)));
}

void CheckpointStore::put(StoredCheckpoint&& cp) {
  auto& epochs = by_vm_[cp.vm];
  auto it = epochs.lower_bound(cp.epoch);
  const bool replace = it != epochs.end() && it->first == cp.epoch;
  const StoredCheckpoint* before =
      it == epochs.begin() ? nullptr : &std::prev(it)->second;
  const auto next = replace ? std::next(it) : it;
  const StoredCheckpoint* after =
      next == epochs.end() ? nullptr : &next->second;
  VDC_REQUIRE(joinable(cp, before, after),
              "checkpoint store: page buffer is resident in another store");
  if (replace) {
    relink(it->second, before, after, /*join=*/false);
    it->second = std::move(cp);
  } else {
    it = epochs.emplace_hint(it, cp.epoch, std::move(cp));
  }
  relink(it->second, before, after, /*join=*/true);
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
  for (auto& [vm, epochs] : by_vm_)
    while (!epochs.empty() && epochs.begin()->first < epoch)
      remove(epochs, epochs.begin());
}

void CheckpointStore::erase(vm::VmId vm, Epoch epoch) {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end()) return;
  auto jt = it->second.find(epoch);
  if (jt == it->second.end()) return;
  remove(it->second, jt);
}

void CheckpointStore::drop_vm(vm::VmId vm) {
  auto it = by_vm_.find(vm);
  if (it == by_vm_.end()) return;
  while (!it->second.empty()) remove(it->second, it->second.begin());
  by_vm_.erase(it);
}

std::size_t CheckpointStore::entry_count() const {
  std::size_t n = 0;
  for (const auto& [vm, epochs] : by_vm_) n += epochs.size();
  return n;
}

}  // namespace vdc::checkpoint
