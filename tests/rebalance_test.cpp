// Tests for cluster-aware live migration and the load rebalancer.

#include <gtest/gtest.h>

#include "cluster/rebalance.hpp"
#include "vm/workload.hpp"

namespace vdc::cluster {
namespace {

std::unique_ptr<vm::Workload> idle() {
  return std::make_unique<vm::IdleWorkload>();
}

struct Rig {
  simkit::Simulator sim;
  ClusterManager cluster{sim, Rng(1)};
  MigrationService migrations{sim, cluster};
  Rebalancer rebalancer{sim, cluster, migrations};

  explicit Rig(std::uint32_t nodes) {
    for (std::uint32_t i = 0; i < nodes; ++i) cluster.add_node();
  }
  vm::VmId boot(NodeId node) {
    return cluster.boot_vm(node, kib(4), 32, idle());
  }
  std::vector<std::size_t> loads() {
    std::vector<std::size_t> out;
    for (NodeId nid : cluster.alive_nodes())
      out.push_back(cluster.node(nid).hypervisor().vm_count());
    return out;
  }
};

TEST(MigrationService, UpdatesPlacementAndNames) {
  Rig rig(3);
  const auto vm = rig.boot(0);
  bool done = false;
  rig.migrations.migrate(vm, 2, [&](const migration::MigrationStats&) {
    done = true;
  });
  rig.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rig.cluster.locate(vm), 2u);
  EXPECT_TRUE(rig.cluster.node(2).hypervisor().hosts(vm));
  EXPECT_FALSE(rig.cluster.node(0).hypervisor().hosts(vm));
  EXPECT_EQ(rig.cluster.machine(vm).state(), vm::VmState::Running);
}

TEST(MigrationService, ContentSurvives) {
  Rig rig(2);
  const auto vm = rig.boot(0);
  const auto content = rig.cluster.machine(vm).image().flatten();
  rig.migrations.migrate(vm, 1, [](const migration::MigrationStats&) {});
  rig.sim.run();
  EXPECT_EQ(rig.cluster.machine(vm).image().flatten(), content);
}

TEST(MigrationService, QueuesConcurrentRequests) {
  Rig rig(3);
  const auto a = rig.boot(0);
  const auto b = rig.boot(0);
  int completions = 0;
  rig.migrations.migrate(a, 1, [&](const migration::MigrationStats&) {
    ++completions;
  });
  rig.migrations.migrate(b, 2, [&](const migration::MigrationStats&) {
    ++completions;
  });
  EXPECT_TRUE(rig.migrations.busy());
  rig.sim.run();
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(rig.migrations.completed(), 2u);
  EXPECT_EQ(rig.cluster.locate(a), 1u);
  EXPECT_EQ(rig.cluster.locate(b), 2u);
}

TEST(MigrationService, RejectsBadRequests) {
  Rig rig(2);
  const auto vm = rig.boot(0);
  EXPECT_THROW(rig.migrations.migrate(vm, 0, nullptr), ConfigError);
  EXPECT_THROW(rig.migrations.migrate(999, 1, nullptr), ConfigError);
  rig.cluster.kill_node(1);
  EXPECT_THROW(rig.migrations.migrate(vm, 1, nullptr), ConfigError);
}

TEST(Rebalancer, SmoothsSkewedLoad) {
  Rig rig(4);
  for (int i = 0; i < 8; ++i) rig.boot(0);  // everything on node 0
  std::optional<RebalanceStats> stats;
  rig.rebalancer.rebalance([&](const RebalanceStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->max_load_before, 8u);
  EXPECT_EQ(stats->max_load_after, 2u);
  EXPECT_EQ(stats->migrations, 6u);
  EXPECT_GT(stats->duration, 0.0);
  const auto loads = rig.loads();
  for (std::size_t load : loads) EXPECT_EQ(load, 2u);
}

TEST(Rebalancer, BalancedClusterIsNoop) {
  Rig rig(3);
  for (NodeId n = 0; n < 3; ++n) rig.boot(n);
  std::optional<RebalanceStats> stats;
  rig.rebalancer.rebalance([&](const RebalanceStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->migrations, 0u);
}

TEST(Rebalancer, SpreadOfOneIsAccepted) {
  Rig rig(2);
  rig.boot(0);
  rig.boot(0);
  rig.boot(0);  // 3 vs 0 -> should end 2 vs 1
  std::optional<RebalanceStats> stats;
  rig.rebalancer.rebalance([&](const RebalanceStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  const auto loads = rig.loads();
  EXPECT_LE(*std::max_element(loads.begin(), loads.end()),
            *std::min_element(loads.begin(), loads.end()) + 1);
}

TEST(Rebalancer, SkipsDeadNodes) {
  Rig rig(4);
  for (int i = 0; i < 6; ++i) rig.boot(0);
  rig.cluster.kill_node(3);
  std::optional<RebalanceStats> stats;
  rig.rebalancer.rebalance([&](const RebalanceStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  // 6 VMs over 3 alive nodes -> 2 each; node 3 untouched (dead).
  EXPECT_EQ(rig.cluster.node(0).hypervisor().vm_count(), 2u);
  EXPECT_EQ(rig.cluster.node(3).hypervisor().vm_count(), 0u);
}

TEST(Rebalancer, DeterministicMoves) {
  auto run_once = [] {
    Rig rig(3);
    for (int i = 0; i < 7; ++i) rig.boot(0);
    std::vector<std::size_t> loads;
    rig.rebalancer.rebalance([&](const RebalanceStats&) {});
    rig.sim.run();
    return rig.loads();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace vdc::cluster
