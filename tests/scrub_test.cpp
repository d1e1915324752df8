// Tests for parity scrubbing: detection and repair of silent in-memory
// corruption of parity stripes.

#include <gtest/gtest.h>

#include <map>

#include "core/recovery.hpp"
#include "core/scrub.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

WorkloadFactory idle_factory() {
  return [](vm::VmId) -> std::unique_ptr<vm::Workload> {
    return std::make_unique<vm::IdleWorkload>();
  };
}

struct Rig {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(5)};
  DvdcState state;
  std::unique_ptr<DvdcCoordinator> coord;
  std::unique_ptr<ParityScrubber> scrubber;
  std::optional<PlacedPlan> placed;

  Rig(std::uint32_t nodes = 4, std::uint32_t vms = 2,
      ParityScheme scheme = ParityScheme::Raid5, std::uint32_t k = 0) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < nodes; ++n)
      for (std::uint32_t v = 0; v < vms; ++v)
        cluster.boot_vm(n, kib(1), 16, std::make_unique<vm::IdleWorkload>());
    ProtocolConfig pc;
    pc.scheme = scheme;
    coord = std::make_unique<DvdcCoordinator>(sim, cluster, state, pc);
    scrubber = std::make_unique<ParityScrubber>(sim, cluster, state);
    PlannerConfig planner;
    planner.group_size = k != 0 ? k : nodes - 1;
    placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster), cluster,
                              scheme);
  }

  void checkpoint(checkpoint::Epoch e) {
    bool done = false;
    coord->run_epoch(*placed, e, [&](const EpochStats&) { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  ScrubReport scrub(bool repair) {
    std::optional<ScrubReport> report;
    scrubber->scrub(*placed, repair,
                    [&](const ScrubReport& r) { report = r; });
    sim.run();
    EXPECT_TRUE(report.has_value());
    return *report;
  }
};

TEST(Scrub, CleanStripesPass) {
  Rig rig;
  rig.checkpoint(1);
  const auto report = rig.scrub(false);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.groups_checked, rig.placed->plan.groups.size());
  EXPECT_GT(report.bytes_verified, 0u);
  EXPECT_GT(report.bytes_streamed, 0u);
  EXPECT_GT(report.duration, 0.0);
}

TEST(Scrub, NothingToCheckBeforeFirstEpoch) {
  Rig rig;
  const auto report = rig.scrub(false);
  EXPECT_EQ(report.groups_checked, 0u);
  EXPECT_TRUE(report.clean());
}

TEST(Scrub, DetectsInjectedCorruption) {
  Rig rig;
  rig.checkpoint(1);
  ASSERT_TRUE(rig.scrubber->inject_corruption(0, 0, 7));
  const auto report = rig.scrub(false);
  ASSERT_EQ(report.mismatched.size(), 1u);
  EXPECT_EQ(report.mismatched[0], 0u);
  EXPECT_EQ(report.repaired, 0u);
  // Without repair the corruption persists.
  const auto again = rig.scrub(false);
  EXPECT_EQ(again.mismatched.size(), 1u);
}

TEST(Scrub, RepairRestoresTheStripe) {
  Rig rig;
  rig.checkpoint(1);
  ASSERT_TRUE(rig.scrubber->inject_corruption(1, 0, 0));
  const auto report = rig.scrub(true);
  EXPECT_EQ(report.mismatched.size(), 1u);
  EXPECT_EQ(report.repaired, 1u);
  EXPECT_TRUE(rig.scrub(false).clean());
}

TEST(Scrub, RepairedStripeRecoversByteExact) {
  // The full motivation: corruption + node failure = silent data
  // corruption unless the scrubber repaired the stripe first.
  Rig rig;
  rig.checkpoint(1);

  // Record committed payloads, corrupt group 0's parity, repair it.
  std::map<vm::VmId, std::vector<std::byte>> committed;
  for (vm::VmId vmid : rig.cluster.all_vms())
    committed[vmid] = rig.state.node_store(*rig.cluster.locate(vmid))
                          .find(vmid, 1)
                          ->payload();
  ASSERT_TRUE(rig.scrubber->inject_corruption(0, 0, 3));
  rig.scrub(true);

  // Now kill a node hosting a member of group 0 and recover.
  RecoveryManager recovery(rig.sim, rig.cluster, rig.state, idle_factory());
  const auto& group = rig.placed->plan.groups[0];
  const auto victim = *rig.cluster.locate(group.members[0]);
  const auto lost = rig.cluster.node(victim).hypervisor().vm_ids();
  rig.cluster.kill_node(victim);
  rig.state.drop_node(victim);
  bool ok = false;
  recovery.recover(*rig.placed, lost,
                   [&](const RecoveryStats& s) { ok = s.success; });
  rig.sim.run();
  ASSERT_TRUE(ok);
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
}

TEST(Scrub, UnrepairedCorruptionSilentlyPoisonsRecovery) {
  // Negative control: without scrubbing, the reconstruction completes but
  // yields wrong bytes — exactly the failure mode scrubbing exists for.
  Rig rig;
  rig.checkpoint(1);
  std::map<vm::VmId, std::vector<std::byte>> committed;
  for (vm::VmId vmid : rig.cluster.all_vms())
    committed[vmid] = rig.state.node_store(*rig.cluster.locate(vmid))
                          .find(vmid, 1)
                          ->payload();
  ASSERT_TRUE(rig.scrubber->inject_corruption(0, 0, 3));

  RecoveryManager recovery(rig.sim, rig.cluster, rig.state, idle_factory());
  const auto& group = rig.placed->plan.groups[0];
  const auto victim = *rig.cluster.locate(group.members[0]);
  const auto lost = rig.cluster.node(victim).hypervisor().vm_ids();
  rig.cluster.kill_node(victim);
  rig.state.drop_node(victim);
  bool ok = false;
  recovery.recover(*rig.placed, lost,
                   [&](const RecoveryStats& s) { ok = s.success; });
  rig.sim.run();
  ASSERT_TRUE(ok);  // recovery has no way to know
  bool any_wrong = false;
  for (vm::VmId vmid : lost)
    if (rig.cluster.machine(vmid).image().flatten() != committed.at(vmid))
      any_wrong = true;
  EXPECT_TRUE(any_wrong);
}

TEST(Scrub, WorksAcrossSchemes) {
  for (ParityScheme scheme : {ParityScheme::Raid5, ParityScheme::Rs}) {
    Rig rig(6, 1, scheme, /*k=*/3);
    rig.checkpoint(1);
    EXPECT_TRUE(rig.scrub(false).clean());
    ASSERT_TRUE(rig.scrubber->inject_corruption(0, 0, 1));
    const auto report = rig.scrub(true);
    EXPECT_EQ(report.mismatched.size(), 1u);
    EXPECT_TRUE(rig.scrub(false).clean());
  }
}

TEST(Scrub, InjectionBoundsChecked) {
  Rig rig;
  rig.checkpoint(1);
  EXPECT_FALSE(rig.scrubber->inject_corruption(99, 0, 0));
  EXPECT_FALSE(rig.scrubber->inject_corruption(0, 9, 0));
  EXPECT_FALSE(rig.scrubber->inject_corruption(0, 0, 1u << 30));
}

}  // namespace
}  // namespace vdc::core
