// End-to-end tests for the Reed-Solomon parity scheme inside the DVDC
// protocol: multi-holder stripes, incremental RS delta updates, and
// recovery from up-to-m node failures.

#include <gtest/gtest.h>

#include <map>

#include "core/plan.hpp"
#include "core/protocol.hpp"
#include "core/recovery.hpp"
#include "parity/reed_solomon.hpp"
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
  cluster::ClusterManager cluster{sim, Rng(2024)};
  DvdcState state;
  std::unique_ptr<DvdcCoordinator> coord;
  std::unique_ptr<RecoveryManager> recovery;
  std::optional<PlacedPlan> placed;

  Rig(std::uint32_t nodes, std::uint32_t vms_per_node, std::size_t rs_m,
      std::uint32_t k, double write_rate = 100.0) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < nodes; ++n)
      for (std::uint32_t v = 0; v < vms_per_node; ++v)
        cluster.boot_vm(n, kib(1), 16,
                        write_rate > 0
                            ? std::unique_ptr<vm::Workload>(
                                  std::make_unique<vm::UniformWorkload>(
                                      write_rate))
                            : std::make_unique<vm::IdleWorkload>());
    ProtocolConfig pc;
    pc.scheme = ParityScheme::Rs;
    pc.rs_parity = rs_m;
    coord = std::make_unique<DvdcCoordinator>(sim, cluster, state, pc);
    recovery =
        std::make_unique<RecoveryManager>(sim, cluster, state, idle_factory());
    PlannerConfig planner;
    planner.group_size = k;
    placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster), cluster,
                              ParityScheme::Rs, rs_m);
  }

  EpochStats checkpoint(checkpoint::Epoch epoch) {
    EpochStats stats;
    bool done = false;
    coord->run_epoch(*placed, epoch, [&](const EpochStats& s) {
      stats = s;
      done = true;
    });
    sim.run();
    EXPECT_TRUE(done);
    return stats;
  }

  std::map<vm::VmId, std::vector<std::byte>> committed_payloads() {
    std::map<vm::VmId, std::vector<std::byte>> out;
    for (vm::VmId vmid : cluster.all_vms()) {
      const auto* cp = state.node_store(*cluster.locate(vmid))
                           .find(vmid, state.committed_epoch());
      if (cp != nullptr) out[vmid] = cp->payload();
    }
    return out;
  }

  RecoveryStats kill_and_recover(std::vector<cluster::NodeId> victims) {
    std::vector<vm::VmId> lost;
    for (auto victim : victims) {
      const auto vms = cluster.node(victim).hypervisor().vm_ids();
      lost.insert(lost.end(), vms.begin(), vms.end());
      cluster.kill_node(victim);
      state.drop_node(victim);
    }
    RecoveryStats stats;
    recovery->recover(*placed, lost,
                      [&](const RecoveryStats& s) { stats = s; });
    sim.run();
    return stats;
  }
};

TEST(RsProtocol, StripeHasMDistinctHolders) {
  Rig rig(7, 1, /*m=*/3, /*k=*/3);
  rig.checkpoint(1);
  for (const auto& group : rig.placed->plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->scheme, ParityScheme::Rs);
    ASSERT_EQ(record->blocks.size(), 3u);
    std::set<cluster::NodeId> holders(record->holders.begin(),
                                      record->holders.end());
    EXPECT_EQ(holders.size(), 3u);
  }
}

TEST(RsProtocol, ParityMatchesCodecEncode) {
  Rig rig(6, 2, 2, 3);
  rig.checkpoint(1);
  for (const auto& group : rig.placed->plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr);
    const parity::ReedSolomonCodec codec(group.members.size(), 2);
    std::vector<parity::Block> padded;
    std::vector<parity::BlockView> views;
    for (vm::VmId m : group.members) {
      const auto* cp =
          rig.state.node_store(*rig.cluster.locate(m)).find(m, 1);
      ASSERT_NE(cp, nullptr);
      padded.push_back(cp->padded_payload(record->block_size));
    }
    for (const auto& p : padded) views.emplace_back(p);
    EXPECT_EQ(codec.encode(views), record->blocks);
  }
}

TEST(RsProtocol, IncrementalDeltasKeepParityExact) {
  Rig rig(6, 2, 2, 3, /*write_rate=*/300.0);
  const auto s1 = rig.checkpoint(1);
  EXPECT_TRUE(s1.full_exchange);
  for (checkpoint::Epoch e = 2; e <= 4; ++e) {
    rig.cluster.advance_workloads(1.0);
    const auto stats = rig.checkpoint(e);
    EXPECT_FALSE(stats.full_exchange) << "epoch " << e;
    EXPECT_LT(stats.bytes_shipped, s1.bytes_shipped);
    // Re-verify parity against a fresh encode.
    for (const auto& group : rig.placed->plan.groups) {
      const auto* record = rig.state.parity(group.id);
      const parity::ReedSolomonCodec codec(group.members.size(), 2);
      std::vector<parity::Block> padded;
      std::vector<parity::BlockView> views;
      for (vm::VmId m : group.members) {
        const auto* cp =
            rig.state.node_store(*rig.cluster.locate(m)).find(m, e);
        ASSERT_NE(cp, nullptr);
        padded.push_back(cp->padded_payload(record->block_size));
      }
      for (const auto& p : padded) views.emplace_back(p);
      ASSERT_EQ(codec.encode(views), record->blocks)
          << "group " << group.id << " epoch " << e;
    }
  }
}

TEST(RsProtocol, DoubleNodeFailureRecovered) {
  Rig rig(6, 1, 2, /*k=*/3);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();

  // Two nodes hosting members of the same group.
  const auto& group = rig.placed->plan.groups[0];
  const auto n0 = *rig.cluster.locate(group.members[0]);
  const auto n1 = *rig.cluster.locate(group.members[1]);
  const auto lost0 = rig.cluster.node(n0).hypervisor().vm_ids();
  const auto lost1 = rig.cluster.node(n1).hypervisor().vm_ids();

  const auto stats = rig.kill_and_recover({n0, n1});
  EXPECT_TRUE(stats.success) << stats.reason;
  for (const auto& lost : {lost0, lost1})
    for (vm::VmId vmid : lost) {
      ASSERT_TRUE(rig.cluster.locate(vmid).has_value());
      EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
                committed.at(vmid));
    }
}

TEST(RsProtocol, TripleParitySurvivesThreeFailures) {
  Rig rig(9, 1, /*m=*/3, /*k=*/4);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();

  const auto& group = rig.placed->plan.groups[0];
  ASSERT_GE(group.members.size(), 3u);
  std::vector<cluster::NodeId> victims;
  for (int i = 0; i < 3; ++i)
    victims.push_back(*rig.cluster.locate(group.members[i]));

  const auto stats = rig.kill_and_recover(victims);
  EXPECT_TRUE(stats.success) << stats.reason;
  for (int i = 0; i < 3; ++i) {
    const vm::VmId vmid = group.members[i];
    ASSERT_TRUE(rig.cluster.locate(vmid).has_value());
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
  }
}

TEST(RsProtocol, BeyondToleranceFailsGracefully) {
  Rig rig(6, 1, /*m=*/1, /*k=*/3);  // RS with m=1 ~ RAID-5 strength
  rig.checkpoint(1);
  const auto& group = rig.placed->plan.groups[0];
  const auto n0 = *rig.cluster.locate(group.members[0]);
  const auto n1 = *rig.cluster.locate(group.members[1]);
  const auto stats = rig.kill_and_recover({n0, n1});
  EXPECT_FALSE(stats.success);
}

TEST(RsProtocol, WireBytesScaleWithM) {
  Rig rig2(8, 1, 2, 3, 0.0);
  Rig rig3(8, 1, 3, 3, 0.0);
  const auto s2 = rig2.checkpoint(1);
  const auto s3 = rig3.checkpoint(1);
  // Full exchange ships each member's image to every holder.
  EXPECT_NEAR(static_cast<double>(s3.bytes_shipped),
              1.5 * static_cast<double>(s2.bytes_shipped),
              static_cast<double>(s2.bytes_shipped) * 0.01);
}

}  // namespace
}  // namespace vdc::core
