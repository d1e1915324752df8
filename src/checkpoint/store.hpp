#pragma once
// In-memory checkpoint store with page sharing.
//
// Diskless checkpointing keeps checkpoints in RAM: each node stores the
// current (and, during a checkpoint, the previous) epoch of the VMs and
// parity blocks it is responsible for. Checkpoints at rest are chopped
// into immutable, ref-counted page chunks so that epoch N+1 shares every
// page that did not change since epoch N — storing an incremental epoch
// costs O(dirty pages), not O(image). total_bytes() reports RESIDENT
// bytes: each distinct page buffer is counted once no matter how many
// epochs reference it, so the paper's "modest memory overhead" claim is
// measured against what the node actually holds.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "vm/machine.hpp"

namespace vdc::checkpoint {

using Epoch = std::uint64_t;

/// A flat checkpoint: the full memory contents of one VM at one epoch, as
/// a recovery rebuild or a NAS staging copy produces it.
struct Checkpoint {
  vm::VmId vm = 0;
  Epoch epoch = 0;
  Bytes page_size = 0;
  std::vector<std::byte> payload;
};

/// An immutable, shareable page-sized chunk of checkpoint payload.
using PageRef = std::shared_ptr<const std::vector<std::byte>>;

/// A sub-page overlay on one page chunk: `bytes` replaces the base page
/// content at [offset, offset + bytes->size()). Patches let an epoch whose
/// guest touched only a few bytes of a page share the previous epoch's base
/// buffer and store just the touched extent.
struct PagePatch {
  std::uint32_t offset = 0;
  PageRef bytes;
};

/// A checkpoint at rest: the payload as a sequence of page chunks plus an
/// optional sparse patch overlay. All chunks are page_size bytes except
/// possibly the last (a trailing partial page); page_size == 0 means a
/// single chunk holds the whole payload. Logical content of chunk i is
/// pages[i] with patches[i] (if present) applied on top; patch depth is
/// always exactly one (re-patching rebases onto the same base buffer).
struct StoredCheckpoint {
  vm::VmId vm = 0;
  Epoch epoch = 0;
  Bytes page_size = 0;
  std::vector<PageRef> pages;
  std::map<std::uint32_t, PagePatch> patches;

  /// Logical payload size (sum of chunk sizes; patches replace, not extend).
  Bytes size_bytes() const;

  /// Read-only view of chunk `i`. Only valid for unpatched chunks — the
  /// scatter-gather readers below handle the general case.
  std::span<const std::byte> page(std::size_t i) const;

  bool patched(std::size_t i) const {
    return patches.count(static_cast<std::uint32_t>(i)) != 0;
  }

  /// Bytes held in patch buffers (on top of the base chunks).
  Bytes patch_bytes() const;

  /// Visit the logical content of chunk `i` over [off, off + len) as up to
  /// three contiguous spans (base-before-patch, patch, base-after-patch).
  /// fn(offset_in_page, bytes); spans arrive in ascending offset order.
  void for_each_range(
      std::size_t i, std::size_t off, std::size_t len,
      const std::function<void(std::size_t, std::span<const std::byte>)>& fn)
      const;

  /// Visit the whole logical payload in order as contiguous spans.
  /// fn(payload_offset, bytes).
  void for_each_span(
      const std::function<void(std::size_t, std::span<const std::byte>)>& fn)
      const;

  /// Materialise the payload as one flat byte vector.
  std::vector<std::byte> payload() const;

  /// Materialise zero-padded to `size` bytes (parity stripe width).
  std::vector<std::byte> padded_payload(std::size_t size) const;

  /// True iff the payload equals `flat` byte for byte (no materialisation).
  bool payload_equals(std::span<const std::byte> flat) const;

  /// Chop a flat payload into fresh page chunks of `page_size` bytes.
  static std::vector<PageRef> chop(std::span<const std::byte> flat,
                                   Bytes page_size);

  /// Build from a wire/capture Checkpoint (chops the flat payload).
  static StoredCheckpoint from(Checkpoint&& cp);
};

class CheckpointStore {
 public:
  /// Insert or replace the checkpoint for (vm, epoch). The Checkpoint
  /// overloads chop the flat payload into fresh chunks; the
  /// StoredCheckpoint overload keeps whatever sharing the caller built.
  void put(const Checkpoint& cp);
  void put(Checkpoint&& cp);
  void put(StoredCheckpoint&& cp);

  /// Fetch a checkpoint; nullptr if absent.
  const StoredCheckpoint* find(vm::VmId vm, Epoch epoch) const;

  /// Latest stored epoch for a VM, if any.
  std::optional<Epoch> latest_epoch(vm::VmId vm) const;

  /// Drop all epochs strictly older than `epoch` for every VM (commit-time
  /// garbage collection: once epoch e is globally committed, e-1 dies).
  void gc_before(Epoch epoch);

  /// Drop one (vm, epoch) entry if present (abort of an in-flight epoch).
  void erase(vm::VmId vm, Epoch epoch);

  /// Drop everything stored for one VM.
  void drop_vm(vm::VmId vm);

  std::size_t entry_count() const;
  /// Resident bytes: every distinct page/patch buffer counted exactly once.
  Bytes total_bytes() const { return resident_bytes_ + patch_resident_bytes_; }
  /// Resident bytes held in patch buffers only (subset of total_bytes()).
  Bytes patch_bytes() const { return patch_resident_bytes_; }

 private:
  void ref_pages(const StoredCheckpoint& cp);
  void unref_pages(const StoredCheckpoint& cp);

  // vm -> epoch -> checkpoint
  std::unordered_map<vm::VmId, std::map<Epoch, StoredCheckpoint>> by_vm_;
  // Distinct page buffer -> number of StoredCheckpoints in THIS store
  // referencing it (buffers may also be shared across stores).
  std::unordered_map<const void*, std::size_t> page_refs_;
  std::unordered_map<const void*, std::size_t> patch_refs_;
  Bytes resident_bytes_ = 0;
  Bytes patch_resident_bytes_ = 0;
};

}  // namespace vdc::checkpoint
