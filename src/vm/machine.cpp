#include "vm/machine.hpp"

#include <utility>

#include "common/assert.hpp"

namespace vdc::vm {

VirtualMachine::VirtualMachine(VmId id, std::string name, Bytes page_size,
                               std::size_t page_count,
                               std::unique_ptr<Workload> workload)
    : id_(id),
      name_(std::move(name)),
      image_(page_size, page_count),
      workload_(std::move(workload)) {
  VDC_REQUIRE(workload_ != nullptr, "VM needs a workload");
}

void VirtualMachine::pause() {
  VDC_ASSERT_MSG(state_ != VmState::Failed, "cannot pause a failed VM");
  state_ = VmState::Paused;
}

void VirtualMachine::resume() {
  VDC_ASSERT_MSG(state_ != VmState::Failed, "cannot resume a failed VM");
  state_ = VmState::Running;
}

void VirtualMachine::advance(SimTime dt, Rng& rng) {
  if (state_ != VmState::Running) return;
  workload_->advance(image_, dt, rng);
  cpu_time_ += dt;
}

VirtualMachine& Hypervisor::create_vm(VmId id, std::string name,
                                      Bytes page_size, std::size_t page_count,
                                      std::unique_ptr<Workload> workload) {
  VDC_REQUIRE(!vms_.count(id), "VM id already hosted here");
  auto machine = std::make_unique<VirtualMachine>(
      id, std::move(name), page_size, page_count, std::move(workload));
  Rng boot_rng = rng_.fork();
  machine->image().fill_random(boot_rng);
  machine->image().clear_dirty();
  auto [it, inserted] = vms_.emplace(id, std::move(machine));
  VDC_ASSERT(inserted);
  return *it->second;
}

VirtualMachine& Hypervisor::adopt(std::unique_ptr<VirtualMachine> machine) {
  VDC_ASSERT(machine != nullptr);
  const VmId id = machine->id();
  VDC_REQUIRE(!vms_.count(id), "VM id already hosted here");
  auto [it, inserted] = vms_.emplace(id, std::move(machine));
  VDC_ASSERT(inserted);
  return *it->second;
}

std::unique_ptr<VirtualMachine> Hypervisor::evict(VmId id) {
  auto it = vms_.find(id);
  VDC_REQUIRE(it != vms_.end(), "evict: VM not hosted here");
  auto machine = std::move(it->second);
  vms_.erase(it);
  return machine;
}

void Hypervisor::destroy_vm(VmId id) {
  VDC_REQUIRE(vms_.erase(id) != 0, "destroy: VM not hosted here");
}

VirtualMachine& Hypervisor::get(VmId id) {
  auto it = vms_.find(id);
  VDC_REQUIRE(it != vms_.end(), "VM not hosted here");
  return *it->second;
}

const VirtualMachine& Hypervisor::get(VmId id) const {
  auto it = vms_.find(id);
  VDC_REQUIRE(it != vms_.end(), "VM not hosted here");
  return *it->second;
}

std::vector<VmId> Hypervisor::vm_ids() const {
  std::vector<VmId> ids;
  ids.reserve(vms_.size());
  for (const auto& [id, machine] : vms_) ids.push_back(id);
  return ids;  // std::map iterates in ascending key order
}

void Hypervisor::pause_all() {
  for (auto& [id, machine] : vms_)
    if (machine->state() == VmState::Running) machine->pause();
}

void Hypervisor::resume_all() {
  for (auto& [id, machine] : vms_)
    if (machine->state() == VmState::Paused) machine->resume();
}

void Hypervisor::advance_all(SimTime dt) {
  for (auto& [id, machine] : vms_) machine->advance(dt, rng_);
}

}  // namespace vdc::vm
