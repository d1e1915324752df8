// Tests for rack fault domains: rack-aware group planning and whole-rack
// correlated failures.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/recovery.hpp"
#include "core/runtime.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

WorkloadFactory idle_factory() {
  return [](vm::VmId) -> std::unique_ptr<vm::Workload> {
    return std::make_unique<vm::IdleWorkload>();
  };
}

/// `racks` racks of `per_rack` nodes, `vms` guests on each node.
struct Rig {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(7)};
  DvdcState state;

  Rig(std::uint32_t racks, std::uint32_t per_rack, std::uint32_t vms) {
    for (std::uint32_t r = 0; r < racks; ++r) {
      for (std::uint32_t i = 0; i < per_rack; ++i) {
        cluster::NodeSpec spec;
        spec.rack = r;
        cluster.add_node(spec);
      }
    }
    for (cluster::NodeId n = 0; n < racks * per_rack; ++n)
      for (std::uint32_t v = 0; v < vms; ++v)
        cluster.boot_vm(n, kib(1), 16, std::make_unique<vm::IdleWorkload>());
  }
};

TEST(Rack, KillRackTakesAllItsNodes) {
  Rig rig(3, 2, 1);
  EXPECT_EQ(rig.cluster.alive_racks(),
            (std::vector<cluster::RackId>{0, 1, 2}));
  const auto lost = rig.cluster.kill_rack(1);
  EXPECT_EQ(lost.size(), 2u);
  EXPECT_EQ(rig.cluster.alive_nodes().size(), 4u);
  EXPECT_EQ(rig.cluster.alive_racks(),
            (std::vector<cluster::RackId>{0, 2}));
  EXPECT_THROW(rig.cluster.kill_rack(1), ConfigError);  // already down
}

TEST(Rack, AwarePlannerSpreadsGroupsAcrossRacks) {
  Rig rig(4, 2, 2);  // 8 nodes in 4 racks
  PlannerConfig config;
  config.group_size = 3;
  config.rack_aware = true;
  GroupPlan plan = GroupPlanner(config).plan(rig.cluster);
  EXPECT_TRUE(plan.rack_aware);
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
  for (const auto& g : plan.groups) {
    std::set<cluster::RackId> racks;
    for (vm::VmId m : g.members) {
      const auto loc = *rig.cluster.locate(m);
      EXPECT_TRUE(racks.insert(rig.cluster.node(loc).rack()).second)
          << "two members of group " << g.id << " share a rack";
    }
  }
}

TEST(Rack, ObliviousPlanFailsRackAwareValidation) {
  Rig rig(2, 3, 1);  // 2 racks x 3 nodes: k=3 groups must share racks
  PlannerConfig oblivious;
  oblivious.group_size = 3;
  GroupPlan plan = GroupPlanner(oblivious).plan(rig.cluster);
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
  plan.rack_aware = true;  // reinterpret under the stricter constraint
  EXPECT_FALSE(GroupPlanner::validate(plan, rig.cluster));
}

TEST(Rack, AwareParityHoldersAvoidMemberRacks) {
  Rig rig(4, 2, 1);
  PlannerConfig config;
  config.group_size = 3;
  config.rack_aware = true;
  auto placed = PlacedPlan::make(GroupPlanner(config).plan(rig.cluster),
                                 rig.cluster, ParityScheme::Raid5);
  for (std::size_t gi = 0; gi < placed.plan.groups.size(); ++gi) {
    std::set<cluster::RackId> member_racks;
    for (vm::VmId m : placed.plan.groups[gi].members)
      member_racks.insert(
          rig.cluster.node(*rig.cluster.locate(m)).rack());
    for (cluster::NodeId holder : placed.holders[gi])
      EXPECT_FALSE(member_racks.count(rig.cluster.node(holder).rack()));
  }
}

TEST(Rack, UnsatisfiableRackConstraintThrows) {
  Rig rig(2, 4, 1);  // only 2 racks
  PlannerConfig config;
  config.group_size = 3;  // needs 3 racks for members alone
  config.rack_aware = true;
  EXPECT_THROW(GroupPlanner(config).plan(rig.cluster), ConfigError);
}

TEST(Rack, WholeRackFailureSurvivedWithRackAwarePlan) {
  // 4 racks x 2 nodes x 1 VM; rack-aware groups of 3 -> a full rack
  // failure erases at most one member per group: RAID-5 recovers all.
  Rig rig(4, 2, 1);
  PlannerConfig config;
  config.group_size = 3;
  config.rack_aware = true;
  auto placed = PlacedPlan::make(GroupPlanner(config).plan(rig.cluster),
                                 rig.cluster, ParityScheme::Raid5);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  RecoveryManager recovery(rig.sim, rig.cluster, rig.state, idle_factory());
  bool committed = false;
  coord.run_epoch(placed, 1, [&](const EpochStats&) { committed = true; });
  rig.sim.run();
  ASSERT_TRUE(committed);

  std::map<vm::VmId, std::vector<std::byte>> payloads;
  for (vm::VmId vmid : rig.cluster.all_vms())
    payloads[vmid] = rig.state
                         .node_store(*rig.cluster.locate(vmid))
                         .find(vmid, 1)
                         ->payload();

  const auto lost = rig.cluster.kill_rack(0);
  ASSERT_EQ(lost.size(), 2u);
  for (cluster::NodeId nid = 0; nid < 2; ++nid) rig.state.drop_node(nid);

  std::optional<RecoveryStats> stats;
  recovery.recover(placed, lost,
                   [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success) << stats->reason;
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              payloads.at(vmid));
}

TEST(Rack, WholeRackFailureKillsRackObliviousPlan) {
  // Same cluster, rack-oblivious plan: the greedy planner happily puts
  // two members of one group into rack 0, so a rack failure is a double
  // erasure under RAID-5.
  Rig rig(2, 3, 1);  // 2 racks x 3 nodes
  PlannerConfig config;
  config.group_size = 3;  // members span both racks by pigeonhole
  auto placed = PlacedPlan::make(GroupPlanner(config).plan(rig.cluster),
                                 rig.cluster, ParityScheme::Raid5);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  RecoveryManager recovery(rig.sim, rig.cluster, rig.state, idle_factory());
  coord.run_epoch(placed, 1, [](const EpochStats&) {});
  rig.sim.run();

  // Find a rack hosting >= 2 members of group 0 (pigeonhole guarantees
  // one exists with 3 members over 2 racks).
  std::map<cluster::RackId, int> members_per_rack;
  for (vm::VmId m : placed.plan.groups[0].members)
    ++members_per_rack[rig.cluster.node(*rig.cluster.locate(m)).rack()];
  cluster::RackId doomed = 0;
  for (const auto& [rack, count] : members_per_rack)
    if (count >= 2) doomed = rack;

  const auto lost = rig.cluster.kill_rack(doomed);
  for (cluster::NodeId nid = 0; nid < 6; ++nid)
    if (!rig.cluster.node(nid).alive()) rig.state.drop_node(nid);

  std::optional<RecoveryStats> stats;
  recovery.recover(placed, lost,
                   [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
}

}  // namespace
}  // namespace vdc::core
