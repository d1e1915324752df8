#include "cluster/manager.hpp"

#include <algorithm>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::cluster {

std::string vm_address(vm::VmId id) {
  return "10." + std::to_string((id >> 16) & 0xff) + "." +
         std::to_string((id >> 8) & 0xff) + "." + std::to_string(id & 0xff);
}

ClusterManager::ClusterManager(simkit::Simulator& sim, Rng rng)
    : sim_(sim), rng_(rng), fabric_(sim) {}

NodeId ClusterManager::add_node(NodeSpec spec, std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  if (name.empty()) name = "node" + std::to_string(id);
  const net::HostId host = fabric_.add_host(spec.nic_rate, spec.rack);
  nodes_.push_back(std::make_unique<PhysicalNode>(id, std::move(name), host,
                                                  spec, rng_.fork()));
  pool_map_.record();
  sim_.telemetry().metrics().set("cluster.map_version",
                                 static_cast<double>(pool_map_.version()));
  return id;
}

PhysicalNode& ClusterManager::node(NodeId id) {
  VDC_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}

const PhysicalNode& ClusterManager::node(NodeId id) const {
  VDC_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}

std::vector<NodeId> ClusterManager::alive_nodes() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_)
    if (n->alive()) out.push_back(n->id());
  return out;
}

NodeId ClusterManager::least_loaded_node(
    const std::unordered_set<NodeId>& excluded,
    const std::unordered_map<NodeId, std::size_t>& pending) const {
  std::optional<NodeId> best, fallback;
  std::size_t best_load = 0, fallback_load = 0;
  for (const auto& n : nodes_) {
    if (!n->alive()) continue;
    std::size_t load = n->hypervisor().vm_count();
    if (auto it = pending.find(n->id()); it != pending.end())
      load += it->second;
    if (!fallback || load < fallback_load) {
      fallback = n->id();
      fallback_load = load;
    }
    if (excluded.count(n->id()) != 0) continue;
    if (!best || load < best_load) {
      best = n->id();
      best_load = load;
    }
  }
  VDC_REQUIRE(fallback.has_value(), "no alive node");
  return best.value_or(*fallback);
}

vm::VmId ClusterManager::boot_vm(NodeId node_id, Bytes page_size,
                                 std::size_t page_count,
                                 std::unique_ptr<vm::Workload> workload,
                                 std::string name) {
  PhysicalNode& n = node(node_id);
  VDC_REQUIRE(n.alive(), "cannot boot a VM on a dead node");
  const vm::VmId id = next_vm_id_++;
  if (name.empty()) name = "vm" + std::to_string(id);
  n.hypervisor().create_vm(id, std::move(name), page_size, page_count,
                           std::move(workload));
  placement_[id] = node_id;
  pool_map_.touch();
  return id;
}

std::optional<NodeId> ClusterManager::locate(vm::VmId id) const {
  auto it = placement_.find(id);
  if (it == placement_.end()) return std::nullopt;
  return it->second;
}

std::vector<vm::VmId> ClusterManager::all_vms() const {
  std::vector<vm::VmId> out;
  out.reserve(placement_.size());
  for (const auto& [id, node] : placement_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

vm::VirtualMachine& ClusterManager::machine(vm::VmId id) {
  auto loc = locate(id);
  VDC_REQUIRE(loc.has_value(), "VM is not placed anywhere");
  return node(*loc).hypervisor().get(id);
}

void ClusterManager::place(std::unique_ptr<vm::VirtualMachine> m,
                           NodeId node_id) {
  VDC_ASSERT(m != nullptr);
  PhysicalNode& n = node(node_id);
  VDC_REQUIRE(n.alive(), "cannot place a VM on a dead node");
  const vm::VmId id = m->id();
  n.hypervisor().adopt(std::move(m));
  placement_[id] = node_id;
  pool_map_.touch();
}

void ClusterManager::destroy_vm(vm::VmId id) {
  auto loc = locate(id);
  VDC_REQUIRE(loc.has_value(), "VM is not placed anywhere");
  node(*loc).hypervisor().destroy_vm(id);
  placement_.erase(id);
  pool_map_.touch();
}

void ClusterManager::kill_node(NodeId id) {
  PhysicalNode& n = node(id);
  VDC_REQUIRE(n.alive(), "node already dead");
  n.alive_ = false;

  std::vector<vm::VmId> lost = n.hypervisor().vm_ids();
  for (vm::VmId vmid : lost) {
    n.hypervisor().get(vmid).mark_failed();
    n.hypervisor().destroy_vm(vmid);
    placement_.erase(vmid);
  }
  pool_map_.record();
  sim_.telemetry().metrics().set("cluster.map_version",
                                 static_cast<double>(pool_map_.version()));
  VDC_INFO("cluster", "node ", n.name(), " failed, lost ", lost.size(),
           " VMs");
}

void ClusterManager::revive_node(NodeId id) {
  PhysicalNode& n = node(id);
  VDC_REQUIRE(!n.alive(), "node is not dead");
  VDC_ASSERT(n.hypervisor().vm_count() == 0);
  n.alive_ = true;
  pool_map_.record();
  sim_.telemetry().metrics().set("cluster.map_version",
                                 static_cast<double>(pool_map_.version()));
}

void ClusterManager::fence_node(NodeId id, std::uint64_t token) {
  VDC_REQUIRE(id < nodes_.size(), "unknown node");
  VDC_REQUIRE(token != 0, "fence token must be nonzero");
  fences_[id] = token;
}

void ClusterManager::lift_fence(NodeId id) { fences_.erase(id); }

std::uint64_t ClusterManager::fence_token(NodeId id) const {
  auto it = fences_.find(id);
  return it == fences_.end() ? 0 : it->second;
}

void ClusterManager::set_degraded(bool on) {
  if (degraded_ == on) return;
  degraded_ = on;
  sim_.telemetry().metrics().set("cluster.degraded", on ? 1.0 : 0.0);
  if (on) sim_.telemetry().metrics().add("cluster.degraded_episodes", 1.0);
}

void ClusterManager::advance_workloads(SimTime dt) {
  for (auto& n : nodes_)
    if (n->alive()) n->hypervisor().advance_all(dt);
}

std::vector<vm::VmId> ClusterManager::kill_rack(RackId rack) {
  std::vector<vm::VmId> all_lost;
  // Snapshot victims first: kill_node mutates alive state.
  std::vector<NodeId> victims;
  for (const auto& n : nodes_)
    if (n->alive() && n->rack() == rack) victims.push_back(n->id());
  VDC_REQUIRE(!victims.empty(), "no alive nodes in that rack");
  for (NodeId nid : victims) {
    const auto lost = node(nid).hypervisor().vm_ids();
    all_lost.insert(all_lost.end(), lost.begin(), lost.end());
    kill_node(nid);
  }
  return all_lost;
}

std::vector<RackId> ClusterManager::alive_racks() const {
  std::vector<RackId> racks;
  for (const auto& n : nodes_)
    if (n->alive()) racks.push_back(n->rack());
  std::sort(racks.begin(), racks.end());
  racks.erase(std::unique(racks.begin(), racks.end()), racks.end());
  return racks;
}

}  // namespace vdc::cluster
