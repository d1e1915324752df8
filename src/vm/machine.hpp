#pragma once
// Virtual machines and the per-node hypervisor.
//
// The hypervisor exposes exactly the narrow interface the paper relies on
// (Section IV-A): pause/resume of guests, reads of their memory images,
// and the dirty-page log — all "below the kernel", i.e. without any
// cooperation from the (synthetic) guest workload.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "vm/memory_image.hpp"
#include "vm/workload.hpp"

namespace vdc::vm {

using VmId = std::uint32_t;

enum class VmState { Running, Paused, Failed };

class VirtualMachine {
 public:
  VirtualMachine(VmId id, std::string name, Bytes page_size,
                 std::size_t page_count, std::unique_ptr<Workload> workload);

  VmId id() const { return id_; }
  const std::string& name() const { return name_; }
  VmState state() const { return state_; }

  MemoryImage& image() { return image_; }
  const MemoryImage& image() const { return image_; }
  Workload& workload() { return *workload_; }

  void pause();
  void resume();
  void mark_failed() { state_ = VmState::Failed; }

  /// Advance the guest's execution by `dt` (no-op unless Running).
  void advance(SimTime dt, Rng& rng);

  /// Virtual CPU time accumulated while Running (the "progress bar").
  SimTime cpu_time() const { return cpu_time_; }

 private:
  VmId id_;
  std::string name_;
  VmState state_ = VmState::Running;
  MemoryImage image_;
  std::unique_ptr<Workload> workload_;
  SimTime cpu_time_ = 0.0;
};

/// One hypervisor instance per physical node. Owns the guests placed there.
class Hypervisor {
 public:
  explicit Hypervisor(Rng rng) : rng_(rng) {}
  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Boot a fresh VM on this node; its image is filled with deterministic
  /// pseudo-random content (a synthetic booted-guest footprint).
  VirtualMachine& create_vm(VmId id, std::string name, Bytes page_size,
                            std::size_t page_count,
                            std::unique_ptr<Workload> workload);

  /// Adopt an existing VM (live-migration arrival / recovery re-placement).
  VirtualMachine& adopt(std::unique_ptr<VirtualMachine> machine);

  /// Remove a VM from this node and hand it to the caller (migration exit).
  std::unique_ptr<VirtualMachine> evict(VmId id);

  void destroy_vm(VmId id);

  bool hosts(VmId id) const { return vms_.count(id) != 0; }
  VirtualMachine& get(VmId id);
  const VirtualMachine& get(VmId id) const;

  std::size_t vm_count() const { return vms_.size(); }
  /// Ids of hosted VMs in ascending order.
  std::vector<VmId> vm_ids() const;

  void pause_all();
  void resume_all();

  /// Advance every running guest by `dt` of virtual time.
  void advance_all(SimTime dt);

  /// Advance one guest by `dt` (used while it is mid-migration).
  void advance_vm(VmId id, SimTime dt) { get(id).advance(dt, rng_); }

 private:
  Rng rng_;
  std::map<VmId, std::unique_ptr<VirtualMachine>> vms_;
};

}  // namespace vdc::vm
