// Tests for DVDC recovery: byte-exact reconstruction, rollback, target
// placement, RAID-5's loss on a double failure (the double-parity
// rebuild is RsProtocol.DoubleNodeFailureRecovered in core_rs_test), and
// the blocks each survivor serves into an RS(k,2) rebuild.

#include <gtest/gtest.h>

#include <map>

#include "core/plan.hpp"
#include "core/protocol.hpp"
#include "core/recovery.hpp"
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
  cluster::ClusterManager cluster{sim, Rng(1)};
  DvdcState state;
  std::unique_ptr<DvdcCoordinator> coord;
  std::unique_ptr<RecoveryManager> recovery;
  std::optional<PlacedPlan> placed;

  Rig(std::uint32_t nodes, std::uint32_t vms_per_node,
      ParityScheme scheme = ParityScheme::Raid5, std::uint32_t k = 0,
      double write_rate = 100.0, cluster::NodeSpec spec = {},
      RecoveryConfig recovery_config = {}) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node(spec);
    for (std::uint32_t n = 0; n < nodes; ++n)
      for (std::uint32_t v = 0; v < vms_per_node; ++v)
        cluster.boot_vm(n, kib(1), 16,
                        write_rate > 0
                            ? std::unique_ptr<vm::Workload>(
                                  std::make_unique<vm::UniformWorkload>(
                                      write_rate))
                            : std::make_unique<vm::IdleWorkload>());
    ProtocolConfig pc;
    pc.scheme = scheme;
    coord = std::make_unique<DvdcCoordinator>(sim, cluster, state, pc);
    recovery = std::make_unique<RecoveryManager>(
        sim, cluster, state, idle_factory(), recovery_config);
    PlannerConfig planner;
    planner.group_size = k;
    placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster), cluster,
                              scheme);
  }

  void checkpoint(checkpoint::Epoch epoch) {
    bool done = false;
    coord->run_epoch(*placed, epoch, [&](const EpochStats&) { done = true; });
    sim.run();
    ASSERT_TRUE(done);
  }

  /// Committed checkpoint payloads keyed by VM.
  std::map<vm::VmId, std::vector<std::byte>> committed_payloads() {
    std::map<vm::VmId, std::vector<std::byte>> out;
    for (vm::VmId vmid : cluster.all_vms()) {
      const auto* cp = state.node_store(*cluster.locate(vmid))
                           .find(vmid, state.committed_epoch());
      if (cp != nullptr) out[vmid] = cp->payload();
    }
    return out;
  }

  RecoveryStats kill_and_recover(cluster::NodeId victim) {
    const auto lost = cluster.node(victim).hypervisor().vm_ids();
    cluster.kill_node(victim);
    state.drop_node(victim);
    std::optional<RecoveryStats> stats;
    recovery->recover(*placed, lost,
                      [&](const RecoveryStats& s) { stats = s; });
    sim.run();
    EXPECT_TRUE(stats.has_value());
    return *stats;
  }
};

TEST(Recovery, LostVmsReconstructedByteExact) {
  Rig rig(4, 3);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();
  ASSERT_EQ(committed.size(), 12u);

  const auto lost = rig.cluster.node(1).hypervisor().vm_ids();
  const auto stats = rig.kill_and_recover(1);
  EXPECT_TRUE(stats.success) << stats.reason;
  EXPECT_EQ(stats.vms_recovered, 3u);
  EXPECT_GT(stats.bytes_transferred, 0u);
  EXPECT_GT(stats.duration, 0.0);

  for (vm::VmId vmid : lost) {
    const auto loc = rig.cluster.locate(vmid);
    ASSERT_TRUE(loc.has_value()) << "vm " << vmid << " not re-placed";
    EXPECT_NE(*loc, 1u);
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid))
        << "vm " << vmid;
  }
}

TEST(Recovery, SurvivorsRollBackToCommittedCut) {
  Rig rig(4, 3, ParityScheme::Raid5, 0, /*write_rate=*/200.0);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();

  // Guests compute past the cut, dirtying memory.
  rig.cluster.advance_workloads(2.0);

  rig.kill_and_recover(2);
  for (const auto& [vmid, payload] : committed) {
    if (!rig.cluster.locate(vmid).has_value()) continue;
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(), payload)
        << "vm " << vmid << " not rolled back";
  }
}

TEST(Recovery, ClusterResumesRunning) {
  Rig rig(4, 2);
  rig.checkpoint(1);
  rig.kill_and_recover(0);
  for (vm::VmId vmid : rig.cluster.all_vms())
    EXPECT_EQ(rig.cluster.machine(vmid).state(), vm::VmState::Running);
}

TEST(Recovery, RecoveredCheckpointStoredOnNewNode) {
  Rig rig(4, 2);
  rig.checkpoint(1);
  const auto lost = rig.cluster.node(3).hypervisor().vm_ids();
  rig.kill_and_recover(3);
  for (vm::VmId vmid : lost) {
    const auto loc = rig.cluster.locate(vmid);
    ASSERT_TRUE(loc.has_value());
    EXPECT_NE(rig.state.node_store(*loc).find(vmid, 1), nullptr);
  }
}

TEST(Recovery, ParityHolderDeathNeedsNoReconstruction) {
  // Kill a node that holds only parity for some group (no data loss for
  // that group): its VMs (members of other groups) still reconstruct.
  Rig rig(4, 1);  // k=3: one VM per node, 1 group of 3 + 1 singleton? No:
  // 4 VMs, k=3: group0 = 3 VMs, group1 = 1 VM.
  rig.checkpoint(1);
  const auto stats = rig.kill_and_recover(0);
  EXPECT_TRUE(stats.success) << stats.reason;
}

TEST(Recovery, WithoutCommittedEpochFails) {
  Rig rig(3, 1);
  const auto lost = rig.cluster.node(0).hypervisor().vm_ids();
  rig.cluster.kill_node(0);
  rig.state.drop_node(0);
  std::optional<RecoveryStats> stats;
  rig.recovery->recover(*rig.placed, lost,
                        [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
}

TEST(Recovery, DoubleNodeFailureDefeatsRaid5) {
  Rig rig(5, 2, ParityScheme::Raid5, 4);
  rig.checkpoint(1);
  // Kill two nodes: some group loses two members -> uncorrectable.
  const auto lost0 = rig.cluster.node(0).hypervisor().vm_ids();
  const auto lost1 = rig.cluster.node(1).hypervisor().vm_ids();
  rig.cluster.kill_node(0);
  rig.cluster.kill_node(1);
  rig.state.drop_node(0);
  rig.state.drop_node(1);
  std::vector<vm::VmId> lost = lost0;
  lost.insert(lost.end(), lost1.begin(), lost1.end());
  std::optional<RecoveryStats> stats;
  rig.recovery->recover(*rig.placed, lost,
                        [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_FALSE(stats->success);
}

TEST(Recovery, TargetAvoidsGroupMembersAndHolder) {
  Rig rig(5, 1, ParityScheme::Raid5, /*k=*/3);
  rig.checkpoint(1);
  // Pick the group of the victim's VM; after recovery its new node must
  // host no other member of that group.
  const auto victim_vms = rig.cluster.node(0).hypervisor().vm_ids();
  ASSERT_EQ(victim_vms.size(), 1u);
  const auto gid = rig.placed->plan.group_of(victim_vms[0]);
  rig.kill_and_recover(0);
  if (gid.has_value()) {
    const auto& group = rig.placed->plan.groups[*gid];
    const auto new_loc = rig.cluster.locate(victim_vms[0]);
    ASSERT_TRUE(new_loc.has_value());
    for (vm::VmId m : group.members) {
      if (m == victim_vms[0]) continue;
      EXPECT_NE(rig.cluster.locate(m), new_loc);
    }
  }
}

TEST(Recovery, LostParityBlocksRebuiltDuringRecovery) {
  // A node that held parity dies: recovery must leave every stripe whole
  // (no empty parity blocks), on fresh holders, so a second failure
  // BEFORE the next epoch is still recoverable.
  Rig rig(4, 2);
  rig.checkpoint(1);
  // Find a node that holds at least one parity block.
  cluster::NodeId parity_holder = 0;
  for (const auto& group : rig.placed->plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr);
    parity_holder = record->holders.front();
  }
  const auto s1 = rig.kill_and_recover(parity_holder);
  ASSERT_TRUE(s1.success) << s1.reason;

  // Every group's stripe is whole again on alive holders.
  for (const auto& group : rig.placed->plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr);
    for (std::size_t hi = 0; hi < record->blocks.size(); ++hi) {
      EXPECT_FALSE(record->blocks[hi].empty())
          << "group " << group.id << " parity " << hi << " still missing";
      EXPECT_TRUE(rig.cluster.node(record->holders[hi]).alive());
      EXPECT_NE(record->holders[hi], parity_holder);
    }
  }

  // Second failure before any new epoch: still recoverable byte-exact.
  rig.cluster.revive_node(parity_holder);
  const auto committed = rig.committed_payloads();
  cluster::NodeId second = 0;
  for (cluster::NodeId nid : rig.cluster.alive_nodes())
    if (rig.cluster.node(nid).hypervisor().vm_count() > 0) second = nid;
  const auto lost = rig.cluster.node(second).hypervisor().vm_ids();
  const auto s2 = rig.kill_and_recover(second);
  EXPECT_TRUE(s2.success) << s2.reason;
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
}

TEST(Recovery, RepeatedFailuresRecoverable) {
  // Fail, recover, checkpoint again, fail a different node.
  Rig rig(4, 2);
  rig.checkpoint(1);
  auto s1 = rig.kill_and_recover(1);
  EXPECT_TRUE(s1.success) << s1.reason;
  rig.cluster.revive_node(1);

  // Re-plan (placement changed) and take a fresh epoch.
  rig.placed = PlacedPlan::make(GroupPlanner().plan(rig.cluster),
                                rig.cluster, ParityScheme::Raid5);
  rig.cluster.advance_workloads(1.0);
  rig.checkpoint(2);
  const auto committed = rig.committed_payloads();

  const auto lost = rig.cluster.node(2).hypervisor().vm_ids();
  auto s2 = rig.kill_and_recover(2);
  EXPECT_TRUE(s2.success) << s2.reason;
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
}

// Slow NIC + slow XOR: wire time and decode time are both material, so
// the chunked pipeline's wire/decode overlap is visible in the makespan.
cluster::NodeSpec pipelined_spec() {
  cluster::NodeSpec spec;
  spec.nic_rate = mib_per_s(10);
  spec.xor_rate = mib_per_s(10);
  return spec;
}

TEST(Recovery, ChunkedPipelineBeatsSequentialReconstruction) {
  RecoveryConfig sequential;  // chunking off
  RecoveryConfig chunked;
  chunked.chunking.chunk_bytes = kib(2);

  const auto run = [](RecoveryConfig rc) {
    Rig rig(4, 2, ParityScheme::Raid5, 0, /*write_rate=*/0.0,
            pipelined_spec(), rc);
    rig.checkpoint(1);
    const auto committed = rig.committed_payloads();
    const auto lost = rig.cluster.node(1).hypervisor().vm_ids();
    const auto stats = rig.kill_and_recover(1);
    EXPECT_TRUE(stats.success) << stats.reason;
    // Pipelining must never trade correctness: byte-exact either way.
    for (vm::VmId vmid : lost)
      EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
                committed.at(vmid));
    return stats;
  };

  const auto seq = run(sequential);
  const auto pipe = run(chunked);
  EXPECT_LT(pipe.duration, seq.duration);
}

TEST(Recovery, RebuildsOnOneNodeFoldOneAtATime) {
  // Node 0 hosts a member of both groups. Each lost member's new node
  // must avoid its group's other member and holder, which leaves node 3
  // for both; it folds their 2 + 2 read blocks one at a time.
  cluster::NodeSpec spec;
  spec.xor_rate = kib(64);  // a 16 KiB block folds in 0.25 s
  Rig rig(4, 2, ParityScheme::Raid5, 0, /*write_rate=*/0.0, spec);
  const auto vms = [&](cluster::NodeId node) {
    return rig.cluster.node(node).hypervisor().vm_ids();
  };
  PlacedPlan placed;
  placed.plan.groups = {{0, {vms(0)[0], vms(1)[0]}}, {1, {vms(0)[1], vms(2)[0]}}};
  placed.holders = {{2}, {1}};
  rig.placed = std::move(placed);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();
  const Bytes block = rig.state.parity(0)->block_size;
  ASSERT_EQ(block, kib(16));

  const auto lost = vms(0);
  const auto stats = rig.kill_and_recover(0);
  ASSERT_TRUE(stats.success) << stats.reason;
  for (vm::VmId vmid : lost) {
    EXPECT_EQ(rig.cluster.locate(vmid), std::optional<cluster::NodeId>(3));
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
  }
  const SimTime folds = 4.0 * static_cast<double>(block) / spec.xor_rate;
  EXPECT_GE(stats.duration, hardware::kResumeTime + folds);
}

TEST(Recovery, AbortMidStreamCancelsChunksAndRetrySucceeds) {
  RecoveryConfig rc;
  rc.chunking.chunk_bytes = kib(1);
  cluster::NodeSpec spec = pipelined_spec();
  spec.nic_rate = mib_per_s(1);  // stretch the exchange
  Rig rig(4, 2, ParityScheme::Raid5, 0, /*write_rate=*/0.0, spec, rc);
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();

  const auto lost = rig.cluster.node(1).hypervisor().vm_ids();
  rig.cluster.kill_node(1);
  rig.state.drop_node(1);
  bool first_done = false;
  rig.recovery->recover(*rig.placed, lost,
                        [&](const RecoveryStats&) { first_done = true; });
  auto& metrics = rig.sim.telemetry().metrics();
  rig.sim.run_until(rig.sim.now() + 0.004);
  // Reconstruction streams are on the wire right now; a cascading fault
  // invalidates the attempt.
  EXPECT_GT(metrics.value("stream.inflight"), 0.0);
  EXPECT_TRUE(rig.recovery->abort());
  // Every chunk flow was torn down with the attempt.
  EXPECT_DOUBLE_EQ(metrics.value("stream.inflight"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 0.0);
  rig.sim.run();
  EXPECT_FALSE(first_done);  // aborted attempts never report

  // The supervisor's next attempt starts from scratch and lands.
  std::optional<RecoveryStats> stats;
  rig.recovery->recover(*rig.placed, lost,
                        [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success) << stats->reason;
  for (vm::VmId vmid : lost) {
    ASSERT_TRUE(rig.cluster.locate(vmid).has_value());
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
  }
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 0.0);
}

// --- one stripe path: what each survivor serves ------------------------------
//
// Hand-built RS(k,2) plans with one VM per node, so every block's node is
// known and the per-node reads can be pinned.

/// The one VM node `node` booted.
vm::VmId vm_on(Rig& rig, cluster::NodeId node) {
  return rig.cluster.node(node).hypervisor().vm_ids().front();
}

/// Replaces the rig's plan: group g's members are the VMs of the nodes
/// `members[g]` (ascending), `holders[g]` its two parity holders.
void hand_plan(Rig& rig,
               const std::vector<std::vector<cluster::NodeId>>& members,
               std::vector<std::vector<cluster::NodeId>> holders) {
  PlacedPlan placed;
  for (std::size_t g = 0; g < members.size(); ++g) {
    RaidGroup group{static_cast<GroupId>(g), {}};
    for (cluster::NodeId node : members[g])
      group.members.push_back(vm_on(rig, node));
    placed.plan.groups.push_back(std::move(group));
  }
  placed.holders = std::move(holders);
  rig.placed = std::move(placed);
}

double served(Rig& rig, cluster::NodeId node) {
  return rig.sim.telemetry().metrics().value(
      "recovery.served_bytes",
      telemetry::Labels{{"node", std::to_string(node)}});
}

double wire_bytes(Rig& rig) {
  return rig.sim.telemetry().metrics().value(
      "net.bytes", telemetry::Labels{{"kind", "host"}});
}

TEST(Recovery, StripeThatLostOnlyHolderOneRebuildsOnItsNewHolder) {
  // Node 4 holds parity block 1 of group 0 and a member of group 1. Group
  // 1 (a lost member) is rebuilt first: the member goes to node 2, the
  // least loaded node outside group 1 and its holders {0, 1}. Group 0 lost only
  // holder 1: its new holder is node 5 (nodes 0-2 host members, node 3
  // keeps block 0, node 2 was just claimed), which re-encodes the block
  // from the three members.
  Rig rig(7, 1, ParityScheme::Rs, 3);
  hand_plan(rig, {{0, 1, 2}, {4, 5, 6}, {3}}, {{3, 4}, {0, 1}, {5, 6}});
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();
  const Bytes block = rig.state.parity(0)->block_size;
  ASSERT_EQ(block, kib(16));
  const vm::VmId lost = vm_on(rig, 4);
  const double wire_before = wire_bytes(rig);

  const auto stats = rig.kill_and_recover(4);
  ASSERT_TRUE(stats.success) << stats.reason;
  EXPECT_EQ(rig.cluster.locate(lost), std::optional<cluster::NodeId>(2));
  EXPECT_EQ(rig.cluster.machine(lost).image().flatten(), committed.at(lost));
  const auto* stripe = rig.state.parity(0);
  ASSERT_NE(stripe, nullptr);
  EXPECT_EQ(stripe->holders, (std::vector<cluster::NodeId>{3, 5}));
  EXPECT_EQ(stripe->blocks[1].size(), block);

  // Group 1 reads its members on nodes 5 and 6 and parity block 0 (node
  // 0); group 0 reads its three members. Six blocks, each remote to its
  // lost block's new node: the fabric carried exactly what recovery.bytes
  // counts.
  EXPECT_EQ(stats.bytes_transferred, 6 * block);
  EXPECT_DOUBLE_EQ(wire_bytes(rig) - wire_before, 6.0 * block);
  const std::map<cluster::NodeId, double> expect{
      {0, 2.0 * block}, {1, 1.0 * block}, {2, 1.0 * block},
      {3, 0.0},         {5, 1.0 * block}, {6, 1.0 * block}};
  for (const auto& [node, bytes] : expect)
    EXPECT_DOUBLE_EQ(served(rig, node), bytes) << "node " << node;
}

TEST(Recovery, LostMemberUnderRs2ReadsExactlyKBlocks) {
  // Group 0 (members on nodes 0-2, holders {3, 4}) loses its member on
  // node 0. The decode reads the two surviving members and parity block 0
  // only: k = 3 blocks, none from holder 1.
  Rig rig(6, 1, ParityScheme::Rs, 3);
  hand_plan(rig, {{0, 1, 2}, {3, 4, 5}}, {{3, 4}, {1, 2}});
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();
  const Bytes block = rig.state.parity(0)->block_size;
  const vm::VmId lost = vm_on(rig, 0);

  const auto stats = rig.kill_and_recover(0);
  ASSERT_TRUE(stats.success) << stats.reason;
  EXPECT_EQ(rig.cluster.locate(lost), std::optional<cluster::NodeId>(5));
  EXPECT_EQ(rig.cluster.machine(lost).image().flatten(), committed.at(lost));
  double total = 0.0;
  for (cluster::NodeId node = 1; node < 6; ++node) total += served(rig, node);
  EXPECT_DOUBLE_EQ(total, 3.0 * block);
  EXPECT_DOUBLE_EQ(served(rig, 3), 1.0 * block);
  EXPECT_DOUBLE_EQ(served(rig, 4), 0.0);
  EXPECT_EQ(stats.bytes_transferred, 3 * block);
}

TEST(Recovery, TwoLostMembersEachReadAllKBlocks) {
  // Group 0 (members on nodes 0-2, holders {3, 4}) loses the members on
  // nodes 0 and 1 at once. Each is rebuilt on its own new node (5, then 6)
  // from the same k = 3 blocks: the member on node 2 and both parity
  // blocks, so each of those serves its block twice.
  Rig rig(7, 1, ParityScheme::Rs, 3);
  hand_plan(rig, {{0, 1, 2}}, {{3, 4}});
  rig.checkpoint(1);
  const auto committed = rig.committed_payloads();
  const Bytes block = rig.state.parity(0)->block_size;
  const std::vector<vm::VmId> lost{vm_on(rig, 0), vm_on(rig, 1)};
  const double wire_before = wire_bytes(rig);
  for (cluster::NodeId victim : {0u, 1u}) {
    rig.cluster.kill_node(victim);
    rig.state.drop_node(victim);
  }
  std::optional<RecoveryStats> stats;
  rig.recovery->recover(*rig.placed, lost,
                        [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->success) << stats->reason;
  EXPECT_EQ(rig.cluster.locate(lost[0]), std::optional<cluster::NodeId>(5));
  EXPECT_EQ(rig.cluster.locate(lost[1]), std::optional<cluster::NodeId>(6));
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid));
  EXPECT_EQ(stats->bytes_transferred, 2 * 3 * block);
  EXPECT_DOUBLE_EQ(wire_bytes(rig) - wire_before, 6.0 * block);
  for (cluster::NodeId node : {2u, 3u, 4u})
    EXPECT_DOUBLE_EQ(served(rig, node), 2.0 * block) << "node " << node;
  for (cluster::NodeId node : {5u, 6u})
    EXPECT_DOUBLE_EQ(served(rig, node), 0.0) << "node " << node;
}

}  // namespace
}  // namespace vdc::core
