#pragma once
// RAID-group planning (paper Section IV-B) behind a placement abstraction.
//
// VMs are partitioned into RAID groups subject to the orthogonality
// constraint borrowed from gridding RAID sets across controllers: no two
// members of one group — nor its parity block — may live on the same
// physical node, so a single node failure erases at most one block per
// group and XOR parity suffices to rebuild it. The planner forms groups
// greedily, always drawing the next group's members from the nodes with
// the most unassigned VMs (which also balances groups across the cluster).
// PlacedPlan::make (core/protocol.hpp) then rotates parity holders
// RAID-5-style across groups.
//
// Two layouts share that greedy skeleton:
//  - Orthogonal (the paper's): load ties break by node id, so with equal
//    loads the same k nodes group together again and again. Simple, but a
//    node failure then concentrates the whole rebuild on its k-1 habitual
//    partners.
//  - Declustered: load ties break by PlacementMap::mix(seed, map_version,
//    group, node) — a deterministic pseudo-random per-group permutation
//    (the balanced-design idea behind parity declustering). Group
//    membership varies across groups, so a failure's rebuild partners
//    spread over ALL survivors and per-node rebuild load drops toward
//    groups_of(victim) * (k-1) / survivors. Coverage guarantees are
//    unchanged: the most-loaded-first primary key is identical.
//
// Plans are versioned against the cluster's PlacementMap: a node join or
// drain bumps the map, and replan() consumes the bump incrementally —
// groups untouched by the change survive verbatim (membership, relative
// order) and only broken groups' VMs are re-formed.

#include <cstdint>
#include <optional>
#include <vector>

#include "checkpoint/store.hpp"
#include "cluster/manager.hpp"
#include "vm/machine.hpp"

namespace vdc::core {

using GroupId = std::uint32_t;

struct RaidGroup {
  GroupId id = 0;
  std::vector<vm::VmId> members;  // data VMs, ascending
};

struct GroupPlan {
  std::vector<RaidGroup> groups;
  /// Plan was built with rack orthogonality: no two members of a group —
  /// nor its parity — share a *rack*, so a whole-rack failure erases at
  /// most one block per stripe.
  bool rack_aware = false;
  /// The cluster PlacementMap version this plan was derived at (0 for
  /// hand-built plans).
  cluster::PlacementMap::Version map_version = 0;

  /// Group containing `vm`, if any: a binary search over each group's
  /// sorted members (recovery asks once per lost VM).
  std::optional<GroupId> group_of(vm::VmId vm) const;

  std::size_t total_members() const;
};

struct PlannerConfig {
  enum class Layout : std::uint8_t {
    /// Deterministic node-id tie-breaks (the paper's layout).
    Orthogonal,
    /// Pseudo-random per-group tie-breaks keyed on the pool map —
    /// spreads rebuild load over all survivors.
    Declustered,
  };

  /// Target data members per group. 0 = auto: alive_nodes minus
  /// `parity_reserve` (Figure 4 for single parity).
  std::uint32_t group_size = 0;
  /// Nodes to leave parity-eligible when group_size is auto — the parity
  /// width of the scheme (1 for RAID-5, m for RS(k,m)).
  std::uint32_t parity_reserve = 1;
  /// Orthogonality at rack granularity: members (and parity holders) of a
  /// group must sit in pairwise distinct racks, making rack-level
  /// correlated failures single erasures per stripe.
  bool rack_aware = false;
  Layout layout = Layout::Orthogonal;
};

class GroupPlanner {
 public:
  explicit GroupPlanner(PlannerConfig config = {}) : config_(config) {}

  /// Plan groups over every VM on the cluster's alive nodes.
  /// Throws ConfigError if the constraint set is unsatisfiable (e.g. more
  /// than `group_size` VMs would be forced onto one node's group slot).
  GroupPlan plan(const cluster::ClusterManager& cluster) const;

  /// Incremental replan after a pool-map bump or placement churn: every
  /// group of `previous` that is still intact (members placed on pairwise
  /// distinct alive nodes, parity-eligible) is kept verbatim; only the
  /// VMs of broken groups — plus any VMs the old plan never covered — are
  /// re-formed into new groups. Group ids are renumbered densely, kept
  /// groups first in their original order.
  GroupPlan replan(const GroupPlan& previous,
                   const cluster::ClusterManager& cluster) const;

  /// True when `group` still provides full protection on this cluster
  /// (the per-group clause of validate()).
  static bool group_intact(const RaidGroup& group,
                           const cluster::ClusterManager& cluster,
                           bool rack_aware);

  /// Verify orthogonality: every group's members lie on pairwise distinct
  /// nodes and at least one alive non-member node exists to hold parity.
  /// Returns false (rather than throwing) so it can run as an invariant
  /// check after recovery re-placements.
  static bool validate(const GroupPlan& plan,
                       const cluster::ClusterManager& cluster);

  /// Eligible parity-holder nodes for a group: alive nodes hosting no
  /// member (and, with `rack_aware`, in no member's rack), ascending.
  static std::vector<cluster::NodeId> eligible_parity_nodes(
      const RaidGroup& group, const cluster::ClusterManager& cluster,
      bool rack_aware = false);

 private:
  struct NodeQueue {
    cluster::NodeId node;
    std::vector<vm::VmId> vms;  // back() is next to assign
  };
  std::uint32_t resolve_group_size(std::size_t alive_nodes) const;
  /// Run the greedy formation loop over `queues`, appending groups to
  /// `plan` (ids continue from plan.groups.size()).
  void form_groups(std::vector<NodeQueue> queues, std::uint32_t k,
                   const cluster::ClusterManager& cluster,
                   GroupPlan& plan) const;
  void check_plan(const GroupPlan& plan,
                  const cluster::ClusterManager& cluster,
                  std::size_t expected_members) const;

  PlannerConfig config_;
};

}  // namespace vdc::core
