// Tests for the orthogonal RAID-group planner.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "core/plan.hpp"
#include "core/protocol.hpp"
#include "core/runtime.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

struct Rig {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(1)};

  Rig(std::uint32_t nodes, std::uint32_t vms_per_node) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < nodes; ++n)
      for (std::uint32_t v = 0; v < vms_per_node; ++v)
        cluster.boot_vm(n, kib(4), 4, std::make_unique<vm::IdleWorkload>());
  }
};

TEST(Planner, Figure4Layout) {
  // 4 nodes x 3 VMs, k = 3: exactly 4 groups, all VMs covered.
  Rig rig(4, 3);
  GroupPlanner planner;
  GroupPlan plan = planner.plan(rig.cluster);
  EXPECT_EQ(plan.groups.size(), 4u);
  EXPECT_EQ(plan.total_members(), 12u);
  for (const auto& g : plan.groups) EXPECT_EQ(g.members.size(), 3u);
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
}

TEST(Planner, EveryVmInExactlyOneGroup) {
  Rig rig(5, 4);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  std::set<vm::VmId> seen;
  for (const auto& g : plan.groups)
    for (vm::VmId m : g.members) EXPECT_TRUE(seen.insert(m).second);
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Planner, GroupOfLookup) {
  Rig rig(3, 2);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  for (const auto& g : plan.groups)
    for (vm::VmId m : g.members) EXPECT_EQ(plan.group_of(m), g.id);
  EXPECT_FALSE(plan.group_of(9999).has_value());
}

class PlannerShapes
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                 std::uint32_t>> {};

TEST_P(PlannerShapes, OrthogonalityHoldsAcrossShapes) {
  const auto [nodes, vms, k] = GetParam();
  Rig rig(nodes, vms);
  PlannerConfig config;
  config.group_size = k;
  GroupPlan plan = GroupPlanner(config).plan(rig.cluster);
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
  EXPECT_EQ(plan.total_members(), std::size_t{nodes} * vms);
  // No group exceeds k members and every group's nodes are distinct.
  for (const auto& g : plan.groups) {
    EXPECT_LE(g.members.size(), std::size_t{k});
    std::set<cluster::NodeId> group_nodes;
    for (vm::VmId m : g.members)
      EXPECT_TRUE(group_nodes.insert(*rig.cluster.locate(m)).second);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlannerShapes,
    ::testing::Values(std::make_tuple(2u, 1u, 1u), std::make_tuple(3u, 1u, 2u),
                      std::make_tuple(4u, 3u, 3u), std::make_tuple(4u, 3u, 2u),
                      std::make_tuple(5u, 7u, 4u), std::make_tuple(8u, 2u, 7u),
                      std::make_tuple(6u, 5u, 3u),
                      std::make_tuple(16u, 4u, 15u)));

TEST(Planner, UnevenVmCountsStillCovered) {
  Rig rig(4, 0);
  // 5, 3, 1, 0 VMs per node.
  for (int i = 0; i < 5; ++i)
    rig.cluster.boot_vm(0, kib(4), 4, std::make_unique<vm::IdleWorkload>());
  for (int i = 0; i < 3; ++i)
    rig.cluster.boot_vm(1, kib(4), 4, std::make_unique<vm::IdleWorkload>());
  rig.cluster.boot_vm(2, kib(4), 4, std::make_unique<vm::IdleWorkload>());
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  EXPECT_EQ(plan.total_members(), 9u);
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
}

TEST(Planner, GroupSizeEqualToNodesRejected) {
  Rig rig(3, 2);
  PlannerConfig config;
  config.group_size = 3;  // no node left for parity
  EXPECT_THROW(GroupPlanner(config).plan(rig.cluster), ConfigError);
}

TEST(Planner, SingleNodeRejected) {
  Rig rig(1, 3);
  EXPECT_THROW(GroupPlanner().plan(rig.cluster), ConfigError);
}

TEST(Planner, DeadNodesExcluded) {
  Rig rig(5, 2);
  rig.cluster.kill_node(4);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  EXPECT_EQ(plan.total_members(), 8u);  // node 4's VMs are gone
  EXPECT_TRUE(GroupPlanner::validate(plan, rig.cluster));
  for (const auto& g : plan.groups)
    for (vm::VmId m : g.members)
      EXPECT_NE(rig.cluster.locate(m), 4u);
}

TEST(Planner, EligibleParityNodesExcludeMembers) {
  Rig rig(4, 3);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  for (const auto& g : plan.groups) {
    const auto eligible =
        GroupPlanner::eligible_parity_nodes(g, rig.cluster);
    ASSERT_EQ(eligible.size(), 1u);  // k=3 members on 3 of 4 nodes
    for (vm::VmId m : g.members)
      EXPECT_NE(*rig.cluster.locate(m), eligible[0]);
  }
}

TEST(Planner, ParityHolderDeterministic) {
  Rig rig(4, 3);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  for (const auto& g : plan.groups) {
    const auto h1 = GroupPlanner::parity_holder(g, 0, rig.cluster);
    const auto h2 = GroupPlanner::parity_holder(g, 0, rig.cluster);
    EXPECT_EQ(h1, h2);
  }
}

TEST(Planner, ValidateCatchesCollocatedMembers) {
  Rig rig(3, 2);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  // Force two members of group 0 onto the same node.
  auto& g = plan.groups[0];
  ASSERT_GE(g.members.size(), 2u);
  const auto loc0 = *rig.cluster.locate(g.members[0]);
  auto machine =
      rig.cluster.node(*rig.cluster.locate(g.members[1])).hypervisor().evict(
          g.members[1]);
  rig.cluster.place(std::move(machine), loc0);
  EXPECT_FALSE(GroupPlanner::validate(plan, rig.cluster));
}

TEST(Planner, ValidateCatchesMissingVm) {
  Rig rig(3, 2);
  GroupPlan plan = GroupPlanner().plan(rig.cluster);
  rig.cluster.destroy_vm(plan.groups[0].members[0]);
  EXPECT_FALSE(GroupPlanner::validate(plan, rig.cluster));
}

TEST(PlacedPlan, HoldersAvoidMemberNodes) {
  Rig rig(4, 3);
  auto placed = PlacedPlan::make(GroupPlanner().plan(rig.cluster),
                                 rig.cluster, ParityScheme::Raid5);
  ASSERT_EQ(placed.holders.size(), placed.plan.groups.size());
  for (std::size_t gi = 0; gi < placed.plan.groups.size(); ++gi) {
    ASSERT_EQ(placed.holders[gi].size(), 1u);
    for (vm::VmId m : placed.plan.groups[gi].members)
      EXPECT_NE(*rig.cluster.locate(m), placed.holders[gi][0]);
  }
}

TEST(PlacedPlan, ParityDutySpreadAcrossNodes) {
  // Figure 4's point: with rotation, no single node holds all parity.
  Rig rig(4, 3);
  auto placed = PlacedPlan::make(GroupPlanner().plan(rig.cluster),
                                 rig.cluster, ParityScheme::Raid5);
  std::set<cluster::NodeId> holders;
  for (const auto& hs : placed.holders) holders.insert(hs[0]);
  EXPECT_GT(holders.size(), 1u);
}

TEST(PlacedPlan, RsTwoNeedsTwoEligibleNodes) {
  Rig small(3, 1);  // k = 2 -> only 1 eligible parity node
  auto plan = GroupPlanner().plan(small.cluster);
  EXPECT_THROW(PlacedPlan::make(plan, small.cluster, ParityScheme::Rs, 2),
               ConfigError);

  Rig ok(4, 1);
  PlannerConfig config;
  config.group_size = 2;  // leaves 2 nodes eligible
  auto plan2 = GroupPlanner(config).plan(ok.cluster);
  auto placed = PlacedPlan::make(plan2, ok.cluster, ParityScheme::Rs, 2);
  for (const auto& hs : placed.holders) {
    ASSERT_EQ(hs.size(), 2u);
    EXPECT_NE(hs[0], hs[1]);
  }
}

// RS(k, m >= 2) needs k + m distinct GF(256) points. An auto-sized group on
// 300 nodes is k = 298, so placement must refuse it up front, naming the
// group size, instead of the first epoch throwing after pausing every
// guest. RAID-5 (XOR) has no width limit.
TEST(PlacedPlan, RejectsRsGroupsWiderThanGf256) {
  Rig rig(300, 1);
  PlannerConfig config;
  config.parity_reserve = 2;
  const GroupPlan plan = GroupPlanner(config).plan(rig.cluster);
  std::size_t widest = 0;
  for (const auto& g : plan.groups)
    widest = std::max(widest, g.members.size());
  ASSERT_EQ(widest, 298u);
  try {
    PlacedPlan::make(plan, rig.cluster, ParityScheme::Rs, 2);
    ADD_FAILURE() << "a k = 298 RS(k,2) group was placed";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("298"), std::string::npos)
        << e.what();
  }
  EXPECT_NO_THROW(PlacedPlan::make(plan, rig.cluster, ParityScheme::Raid5));

  config.group_size = 254;  // k + m = 256: the widest RS(k,2) stripe
  EXPECT_NO_THROW(PlacedPlan::make(GroupPlanner(config).plan(rig.cluster),
                                   rig.cluster, ParityScheme::Rs, 2));

  // The runtime backend auto-sizes the same plan and fails its first
  // checkpoint before the coordinator pauses any guest.
  ProtocolConfig pc;
  pc.scheme = ParityScheme::Rs;
  DvdcBackend backend(rig.sim, rig.cluster, pc, RecoveryConfig{},
                      [](vm::VmId) -> std::unique_ptr<vm::Workload> {
                        return std::make_unique<vm::IdleWorkload>();
                      });
  EXPECT_THROW(backend.checkpoint(1, [](const EpochStats&) {}), ConfigError);
  for (vm::VmId vmid : rig.cluster.all_vms())
    EXPECT_EQ(rig.cluster.machine(vmid).state(), vm::VmState::Running);
}

}  // namespace
}  // namespace vdc::core
