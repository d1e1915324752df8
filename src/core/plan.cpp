#include "core/plan.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace vdc::core {

std::optional<GroupId> GroupPlan::group_of(vm::VmId vm) const {
  for (const auto& g : groups)
    if (std::binary_search(g.members.begin(), g.members.end(), vm))
      return g.id;
  return std::nullopt;
}

std::size_t GroupPlan::total_members() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.members.size();
  return n;
}

std::uint32_t GroupPlanner::resolve_group_size(std::size_t alive_nodes) const {
  VDC_REQUIRE(alive_nodes >= 2, "DVDC needs at least two alive nodes");
  std::uint32_t k = config_.group_size;
  if (k == 0) {
    VDC_REQUIRE(config_.parity_reserve >= 1 &&
                    alive_nodes > config_.parity_reserve,
                "not enough alive nodes for the parity reserve");
    k = static_cast<std::uint32_t>(alive_nodes) - config_.parity_reserve;
  }
  VDC_REQUIRE(k >= 1, "group size must be at least 1");
  VDC_REQUIRE(k < alive_nodes,
              "group size must leave at least one node free for parity");
  return k;
}

void GroupPlanner::form_groups(std::vector<NodeQueue> queues, std::uint32_t k,
                               const cluster::ClusterManager& cluster,
                               GroupPlan& plan) const {
  const bool declustered = config_.layout == PlannerConfig::Layout::Declustered;
  const auto& map = cluster.placement_map();
  // Decorated index sort: the rank key is computed once per queue per
  // round (not per comparison), which is what keeps a 10k-node plan in
  // seconds — mix() is three multiply rounds and a comparator would call
  // it O(n log n) times per group.
  struct Rank {
    std::size_t queue;
    std::size_t load;
    std::uint64_t key;
    cluster::NodeId node;
  };
  std::vector<Rank> order;
  order.reserve(queues.size());
  for (;;) {
    const auto gid = static_cast<GroupId>(plan.groups.size());
    // Nodes with work left, most-loaded first. Ties: node id under the
    // orthogonal layout; a per-group pseudo-random permutation of the
    // pool map under the declustered one, so equal-load nodes rotate
    // their grouping partners instead of pairing up identically forever.
    order.clear();
    for (std::size_t qi = 0; qi < queues.size(); ++qi) {
      if (queues[qi].vms.empty()) continue;
      order.push_back(Rank{
          qi, queues[qi].vms.size(),
          declustered ? cluster::PlacementMap::mix(map.seed(),
                                                   plan.map_version, gid,
                                                   queues[qi].node)
                      : 0,
          queues[qi].node});
    }
    if (order.empty()) break;
    std::sort(order.begin(), order.end(), [](const Rank& a, const Rank& b) {
      if (a.load != b.load) return a.load > b.load;
      if (a.key != b.key) return a.key < b.key;
      return a.node < b.node;
    });

    // Draw one VM from each of the first up-to-k queues, skipping queues
    // whose rack is already represented when rack orthogonality is on.
    RaidGroup group;
    group.id = gid;
    std::unordered_set<cluster::RackId> used_racks;
    for (std::size_t i = 0; i < order.size() && group.members.size() < k;
         ++i) {
      NodeQueue& q = queues[order[i].queue];
      const cluster::RackId rack = cluster.node(q.node).rack();
      if (config_.rack_aware && used_racks.count(rack)) continue;
      used_racks.insert(rack);
      group.members.push_back(q.vms.back());
      q.vms.pop_back();
    }
    if (group.members.empty())
      throw ConfigError(
          "rack-aware planning is stuck: remaining VMs cannot be grouped "
          "without sharing a rack");
    std::sort(group.members.begin(), group.members.end());
    plan.groups.push_back(std::move(group));
  }
}

void GroupPlanner::check_plan(const GroupPlan& plan,
                              const cluster::ClusterManager& cluster,
                              std::size_t expected_members) const {
  // Verify there is a parity node for every group.
  for (const auto& g : plan.groups) {
    if (eligible_parity_nodes(g, cluster, plan.rack_aware).empty())
      throw ConfigError(
          "group has no eligible parity node under the plan's "
          "orthogonality constraints");
  }
  VDC_REQUIRE(plan.total_members() == expected_members,
              "planner left VMs unprotected");
}

GroupPlan GroupPlanner::plan(const cluster::ClusterManager& cluster) const {
  // With no previous plan every VM is uncovered: replan forms them all.
  return replan(GroupPlan{}, cluster);
}

GroupPlan GroupPlanner::replan(const GroupPlan& previous,
                               const cluster::ClusterManager& cluster) const {
  const auto alive = cluster.alive_nodes();
  const std::uint32_t k = resolve_group_size(alive.size());

  GroupPlan plan;
  plan.rack_aware = config_.rack_aware;
  plan.map_version = cluster.placement_map().version();

  // Keep intact groups verbatim (renumbered densely, original order):
  // their stripes need no re-exchange and their rebuild layout is
  // untouched by the membership change.
  std::unordered_set<vm::VmId> covered;
  for (const auto& g : previous.groups) {
    if (g.members.size() > k) continue;  // group size shrank: re-form
    if (!group_intact(g, cluster, config_.rack_aware)) continue;
    RaidGroup kept;
    kept.id = static_cast<GroupId>(plan.groups.size());
    kept.members = g.members;
    covered.insert(kept.members.begin(), kept.members.end());
    plan.groups.push_back(std::move(kept));
  }

  // Re-form only the uncovered VMs (broken groups' members that survived,
  // plus VMs the old plan never saw).
  std::vector<NodeQueue> queues;
  std::size_t total_vms = 0;
  for (cluster::NodeId nid : alive) {
    NodeQueue q{nid, {}};
    for (vm::VmId vm : cluster.node(nid).hypervisor().vm_ids()) {
      ++total_vms;
      if (!covered.count(vm)) q.vms.push_back(vm);
    }
    std::reverse(q.vms.begin(), q.vms.end());
    if (!q.vms.empty()) queues.push_back(std::move(q));
  }
  form_groups(std::move(queues), k, cluster, plan);
  check_plan(plan, cluster, total_vms);
  return plan;
}

bool GroupPlanner::group_intact(const RaidGroup& group,
                                const cluster::ClusterManager& cluster,
                                bool rack_aware) {
  if (group.members.empty()) return false;
  std::unordered_set<cluster::NodeId> nodes;
  std::unordered_set<cluster::RackId> racks;
  for (vm::VmId vm : group.members) {
    const auto loc = cluster.locate(vm);
    if (!loc.has_value()) return false;  // member vanished
    if (!cluster.node(*loc).alive()) return false;
    if (!nodes.insert(*loc).second) return false;  // orthogonality broken
    if (rack_aware && !racks.insert(cluster.node(*loc).rack()).second)
      return false;  // two members share a rack
  }
  return !eligible_parity_nodes(group, cluster, rack_aware).empty();
}

bool GroupPlanner::validate(const GroupPlan& plan,
                            const cluster::ClusterManager& cluster) {
  std::unordered_set<vm::VmId> seen;
  for (const auto& g : plan.groups) {
    for (vm::VmId vm : g.members)
      if (!seen.insert(vm).second) return false;  // VM in two groups
    if (!group_intact(g, cluster, plan.rack_aware)) return false;
  }
  return true;
}

std::vector<cluster::NodeId> GroupPlanner::eligible_parity_nodes(
    const RaidGroup& group, const cluster::ClusterManager& cluster,
    bool rack_aware) {
  std::unordered_set<cluster::NodeId> member_nodes;
  std::unordered_set<cluster::RackId> member_racks;
  for (vm::VmId vm : group.members) {
    const auto loc = cluster.locate(vm);
    if (!loc.has_value()) continue;
    member_nodes.insert(*loc);
    member_racks.insert(cluster.node(*loc).rack());
  }
  std::vector<cluster::NodeId> eligible;
  for (cluster::NodeId nid : cluster.alive_nodes()) {
    if (member_nodes.count(nid)) continue;
    if (rack_aware && member_racks.count(cluster.node(nid).rack())) continue;
    eligible.push_back(nid);
  }
  return eligible;
}

}  // namespace vdc::core
