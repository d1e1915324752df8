#pragma once
// Cluster management: physical nodes and VM placement.
//
// The manager owns the fabric, one hypervisor per physical node, and the
// VM -> node placement registry, which is also the cluster's name
// binding: a VM keeps its id (and the address derived from it) while
// locate() follows it across nodes. It is the substrate both checkpointing
// runtimes (DVDC and the NAS baseline) are built on. Killing a node takes
// its hypervisor — and every VM placed there — down with it, which is the
// correlated-failure fact that forces the orthogonal RAID-group placement
// of Section IV-B.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/placement.hpp"
#include "common/hardware.hpp"
#include "common/rng.hpp"
#include "net/fabric.hpp"
#include "simkit/resource.hpp"
#include "vm/machine.hpp"

namespace vdc::cluster {

using NodeId = std::uint32_t;

struct NodeSpec {
  Rate nic_rate = hardware::kNicRate;
  /// Memory XOR/copy bandwidth for parity work on this node.
  Rate xor_rate = hardware::kXorRate;
  /// Fault domain: nodes in the same rack share power/switch and can fail
  /// together (rack-level correlated failures).
  std::uint32_t rack = 0;
};

using RackId = std::uint32_t;

class PhysicalNode {
 public:
  PhysicalNode(simkit::Simulator& sim, NodeId id, std::string name,
               net::HostId host, NodeSpec spec, Rng rng)
      : id_(id),
        name_(std::move(name)),
        host_(host),
        spec_(spec),
        hypervisor_(rng),
        fold_queue_(sim, 1) {}

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  net::HostId host() const { return host_; }
  const NodeSpec& spec() const { return spec_; }
  RackId rack() const { return spec_.rack; }
  bool alive() const { return alive_; }

  vm::Hypervisor& hypervisor() { return hypervisor_; }
  const vm::Hypervisor& hypervisor() const { return hypervisor_; }

  /// The node's one parity-fold engine: every block that lands here to be
  /// folded (epoch exchange, rebuild, scrub) queues on it, one fold at a
  /// time, at spec().xor_rate.
  simkit::Resource& fold_queue() { return fold_queue_; }

 private:
  friend class ClusterManager;
  NodeId id_;
  std::string name_;
  net::HostId host_;
  NodeSpec spec_;
  bool alive_ = true;
  vm::Hypervisor hypervisor_;
  simkit::Resource fold_queue_;
};

/// Stable cluster-global virtual address (10.x.y.z) of a VM, derived from
/// its id. On recovery the VM keeps its address while its placement moves
/// — the "ARP update" of Section II-A.
std::string vm_address(vm::VmId id);

class ClusterManager {
 public:
  /// The fabric runs at Fabric's default link latency.
  ClusterManager(simkit::Simulator& sim, Rng rng);

  /// Add a physical node. Nodes are numbered densely from 0.
  NodeId add_node(NodeSpec spec = {}, std::string name = {});

  std::size_t node_count() const { return nodes_.size(); }
  PhysicalNode& node(NodeId id);
  const PhysicalNode& node(NodeId id) const;
  std::vector<NodeId> alive_nodes() const;
  /// The alive node hosting the fewest VMs, counting `pending` placements
  /// decided but not made yet; the lowest id wins ties. Nodes in
  /// `excluded` are passed over unless every alive node is excluded.
  NodeId least_loaded_node(
      const std::unordered_set<NodeId>& excluded = {},
      const std::unordered_map<NodeId, std::size_t>& pending = {}) const;

  net::Fabric& fabric() { return fabric_; }
  simkit::Simulator& sim() { return sim_; }

  /// The versioned pool map: node joins/drains bump its version, VM
  /// placement churn bumps its stamp. Layout consumers (GroupPlanner,
  /// DvdcBackend::ensure_plan) key their caches on it.
  const PlacementMap& placement_map() const { return pool_map_; }
  PlacementMap& placement_map() { return pool_map_; }

  // --- VM lifecycle --------------------------------------------------------
  /// Boot a VM on `node`; returns its cluster-wide id.
  vm::VmId boot_vm(NodeId node, Bytes page_size, std::size_t page_count,
                   std::unique_ptr<vm::Workload> workload,
                   std::string name = {});

  /// Where a VM currently lives (nullopt if destroyed or lost): the
  /// name binding traffic and recovery resolve through.
  std::optional<NodeId> locate(vm::VmId id) const;

  /// All live VM ids, ascending.
  std::vector<vm::VmId> all_vms() const;

  /// Hypervisor access for a VM's current node.
  vm::VirtualMachine& machine(vm::VmId id);

  /// Move a (re-created or evicted) VM onto `node`.
  void place(std::unique_ptr<vm::VirtualMachine> machine, NodeId node);

  /// Remove a VM from the cluster entirely.
  void destroy_vm(vm::VmId id);

  // --- failure handling ----------------------------------------------------
  /// Kill a node: its VMs are lost immediately and leave the placement
  /// registry.
  void kill_node(NodeId id);

  /// Correlated failure: kill every alive node in `rack`. Returns all VMs
  /// lost across the rack.
  std::vector<vm::VmId> kill_rack(RackId rack);

  /// Distinct rack ids among alive nodes, ascending.
  std::vector<RackId> alive_racks() const;

  /// Bring a node back empty (repaired hardware, fresh hypervisor).
  void revive_node(NodeId id);

  // --- fencing --------------------------------------------------------------
  // A node declared failed is fenced with the epoch token current at the
  // time of the declaration. If it was a false positive — the node is
  // actually alive behind a partition — any stale parity/checkpoint write
  // it attempts is rejected until the fence is lifted on rejoin.
  void fence_node(NodeId id, std::uint64_t token);
  void lift_fence(NodeId id);
  bool is_fenced(NodeId id) const { return fences_.count(id) != 0; }
  /// Token a node was fenced with (0 if unfenced).
  std::uint64_t fence_token(NodeId id) const;

  /// Degraded mode: redundancy is currently reduced (a recovery episode is
  /// in flight or a stripe is damaged). Raised/cleared by the recovery
  /// supervisor; the scrubber reads it to defer a parity repair that
  /// would race the rebuild.
  bool degraded() const { return degraded_; }
  void set_degraded(bool on);

  // --- time ----------------------------------------------------------------
  /// Advance every running guest on every live node by `dt`.
  void advance_workloads(SimTime dt);

 private:
  simkit::Simulator& sim_;
  Rng rng_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<PhysicalNode>> nodes_;
  std::unordered_map<vm::VmId, NodeId> placement_;
  vm::VmId next_vm_id_ = 1;
  bool degraded_ = false;
  std::unordered_map<NodeId, std::uint64_t> fences_;
  PlacementMap pool_map_;
};

}  // namespace vdc::cluster
