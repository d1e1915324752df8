#pragma once
// In-memory checkpoint store with page sharing.
//
// Diskless checkpointing keeps checkpoints in RAM: each node stores the
// current (and, during a checkpoint, the previous) epoch of the VMs and
// parity blocks it is responsible for. Checkpoints at rest are chopped
// into immutable, shared page buffers so that epoch N+1 shares every page
// that did not change since epoch N — storing an incremental epoch costs
// O(dirty pages), not O(image). total_bytes() reports RESIDENT bytes: each
// distinct buffer is counted once no matter how many epochs reference it,
// so the paper's "modest memory overhead" claim is measured against what
// the node actually holds.
//
// Layout and cost. A stored checkpoint is one PageSlot per page: a base
// buffer and an optional sub-page patch over it. Capture copies the
// previous epoch's slot vector and replaces only the slots its guest
// wrote. Each buffer carries its own residency count: the number of runs
// it forms in its store, where a run is a maximal sequence of consecutive
// stored epochs of one VM that hold the buffer in the same slot position
// (base or patch). A buffer is resident while that count is nonzero.
// Inserting or dropping an entry compares its slots with those of the
// epochs on either side and counts only the buffers that differ, so put(),
// gc_before() and erase() touch only the buffers an entry adds or drops,
// after one pointer compare per slot.
//
// A buffer joins one store at a time. put() fails (ConfigError, before it
// changes anything) on an entry that references a buffer resident in
// another store; once no entry of that store references the buffer, it may
// join another one.

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

class CheckpointStore;

/// A flat checkpoint: the full memory contents of one VM at one epoch, as
/// a recovery rebuild or a NAS staging copy produces it.
struct Checkpoint {
  vm::VmId vm = 0;
  Epoch epoch = 0;
  Bytes page_size = 0;
  std::vector<std::byte> payload;
};

/// An immutable page-sized chunk (or sub-page patch) of checkpoint payload,
/// shared by pointer between the epochs that hold it. The store it is
/// resident in keeps its residency count here.
class PageBuffer {
 public:
  explicit PageBuffer(std::span<const std::byte> bytes)
      : bytes_(bytes.begin(), bytes.end()) {}

  const std::byte* data() const { return bytes_.data(); }
  std::size_t size() const { return bytes_.size(); }
  std::span<const std::byte> bytes() const { return bytes_; }

 private:
  friend class CheckpointStore;
  std::vector<std::byte> bytes_;
  // Runs the buffer forms in `store_` (see the header), and that store;
  // null while it is resident in none.
  mutable std::size_t runs_ = 0;
  mutable const CheckpointStore* store_ = nullptr;
};

using PageRef = std::shared_ptr<const PageBuffer>;

/// A fresh buffer holding a copy of `bytes`.
inline PageRef make_page(std::span<const std::byte> bytes) {
  return std::make_shared<const PageBuffer>(bytes);
}

/// One page of a stored checkpoint: the base chunk and, optionally, a
/// sub-page patch whose bytes replace the base content at
/// [patch_offset, patch_offset + patch->size()). Patches let an epoch whose
/// guest touched only a few bytes of a page share the previous epoch's base
/// buffer and store just the touched extent.
struct PageSlot {
  PageRef base;
  PageRef patch;  // null: the page is its base alone
  std::uint32_t patch_offset = 0;
};

/// A checkpoint at rest: the payload as a sequence of page slots. All
/// base chunks are page_size bytes except possibly the last (a trailing
/// partial page); page_size == 0 means a single chunk holds the whole
/// payload. Logical content of chunk i is pages[i].base with
/// pages[i].patch (if present) applied on top; patch depth is always
/// exactly one (re-patching rebases onto the same base buffer).
struct StoredCheckpoint {
  vm::VmId vm = 0;
  Epoch epoch = 0;
  Bytes page_size = 0;
  std::vector<PageSlot> pages;

  /// Logical payload size (sum of chunk sizes; patches replace, not extend).
  Bytes size_bytes() const;

  /// Read-only view of chunk `i`. Only valid for unpatched chunks — the
  /// scatter-gather readers below handle the general case.
  std::span<const std::byte> page(std::size_t i) const;

  bool patched(std::size_t i) const { return pages[i].patch != nullptr; }

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

  /// Chop a flat payload into fresh, unpatched page chunks of `page_size`
  /// bytes.
  static std::vector<PageSlot> chop(std::span<const std::byte> flat,
                                    Bytes page_size);

  /// Build from a wire/capture Checkpoint (chops the flat payload).
  static StoredCheckpoint from(Checkpoint&& cp);
};

class CheckpointStore {
 public:
  CheckpointStore() = default;
  /// Releases every buffer it holds, so each may join another store.
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

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

  /// Drop everything.
  void clear();

  std::size_t entry_count() const;
  /// Resident bytes: every distinct page/patch buffer counted exactly once.
  Bytes total_bytes() const { return resident_bytes_ + patch_resident_bytes_; }
  /// Resident bytes held in patch buffers only (subset of total_bytes()).
  Bytes patch_bytes() const { return patch_resident_bytes_; }

 private:
  using Epochs = std::map<Epoch, StoredCheckpoint>;

  /// Count entry `cp` in (join) or out (leave) between its epoch
  /// neighbours `before` and `after` (null: none).
  void relink(const StoredCheckpoint& cp, const StoredCheckpoint* before,
              const StoredCheckpoint* after, bool join);
  /// True if no buffer `cp` adds between those neighbours is resident in
  /// another store.
  bool joinable(const StoredCheckpoint& cp, const StoredCheckpoint* before,
                const StoredCheckpoint* after) const;
  void count(const PageBuffer& buf, bool patch, bool join);
  /// Count out and erase one entry.
  void remove(Epochs& epochs, Epochs::iterator it);

  // vm -> epoch -> checkpoint
  std::unordered_map<vm::VmId, Epochs> by_vm_;
  Bytes resident_bytes_ = 0;
  Bytes patch_resident_bytes_ = 0;
};

}  // namespace vdc::checkpoint
