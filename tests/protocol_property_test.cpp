// Interleaving property test: under randomized sequences of operations —
// guest execution, checkpoint epochs, aborted epochs, node failures with
// recovery, parity corruption with scrub-repair, rebalancing — the DVDC
// invariants must hold after every step:
//
//   I1  every committed stripe decodes: parity == encode(member
//       checkpoints at the committed epoch)
//   I2  a node failure at any quiescent point is recoverable and
//       byte-exact (checked by actually performing one at the end)
//   I3  the committed epoch never regresses
//   I4  every VM exists exactly once and runs on an alive node

#include <gtest/gtest.h>

#include <map>

#include "cluster/rebalance.hpp"
#include "core/recovery.hpp"
#include "core/scrub.hpp"
#include "parity/reed_solomon.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

WorkloadFactory workload_factory() {
  return [](vm::VmId) -> std::unique_ptr<vm::Workload> {
    return std::make_unique<vm::HotColdWorkload>(200.0, 0.2, 0.8);
  };
}

struct Harness {
  simkit::Simulator sim;
  cluster::ClusterManager cluster;
  DvdcState state;
  DvdcCoordinator coord;
  RecoveryManager recovery;
  ParityScrubber scrubber;
  cluster::MigrationService migrations;
  cluster::Rebalancer rebalancer;
  std::optional<PlacedPlan> placed;
  // The plan matching the committed stripes: recovery, scrubbing and the
  // stripe invariant all run against THIS plan (mirrors DvdcBackend).
  std::optional<PlacedPlan> committed_plan;
  checkpoint::Epoch next_epoch = 1;
  Rng rng;

  explicit Harness(std::uint64_t seed)
      : cluster(sim, Rng(seed)),
        coord(sim, cluster, state),
        recovery(sim, cluster, state, workload_factory()),
        scrubber(sim, cluster, state),
        migrations(sim, cluster),
        rebalancer(sim, cluster, migrations),
        rng(seed * 31 + 7) {
    for (int n = 0; n < 5; ++n) cluster.add_node();
    auto workloads = workload_factory();
    for (int n = 0; n < 5; ++n)
      for (int v = 0; v < 2; ++v)
        cluster.boot_vm(n, kib(1), 16, workloads(0));
    replan();
  }

  void replan() {
    PlannerConfig pc;
    pc.group_size = 3;
    placed = PlacedPlan::make(GroupPlanner(pc).plan(cluster), cluster,
                              ParityScheme::Raid5);
  }

  void ensure_plan() {
    if (!placed->still_orthogonal(cluster)) replan();
  }

  bool checkpoint(bool abort_midway) {
    ensure_plan();
    bool committed = false;
    coord.run_epoch(*placed, next_epoch,
                    [&](const EpochStats&) { committed = true; });
    if (abort_midway) {
      sim.run(3 + rng.uniform_u64(5));
      coord.abort();
    }
    sim.run();
    if (committed) {
      ++next_epoch;
      committed_plan = placed;
    }
    return committed;
  }

  bool fail_and_recover() {
    if (state.committed_epoch() == 0) return true;  // nothing to do yet
    const auto alive = cluster.alive_nodes();
    const auto victim = alive[rng.uniform_u64(alive.size())];
    const auto lost = cluster.node(victim).hypervisor().vm_ids();
    cluster.kill_node(victim);
    state.drop_node(victim);
    cluster.revive_node(victim);  // repaired replacement (constant n)
    if (lost.empty()) return true;
    bool ok = false;
    recovery.recover(*committed_plan, lost,
                     [&](const RecoveryStats& s) { ok = s.success; });
    sim.run();
    return ok;
  }

  void corrupt_and_scrub() {
    if (state.committed_epoch() == 0) return;
    const auto gid = static_cast<GroupId>(
        rng.uniform_u64(committed_plan->plan.groups.size()));
    scrubber.inject_corruption(gid, 0, rng.uniform_u64(kib(1) * 16));
    scrubber.scrub(*committed_plan, /*repair=*/true,
                   [](const ScrubReport&) {});
    sim.run();
  }

  void rebalance() {
    rebalancer.rebalance([](const cluster::RebalanceStats&) {});
    sim.run();
  }

  // --- invariants ----------------------------------------------------------
  void check_stripes() const {
    if (state.committed_epoch() == 0) return;
    auto& mutable_state = const_cast<DvdcState&>(state);
    for (const auto& group : committed_plan->plan.groups) {
      const auto* record = state.parity(group.id);
      if (record == nullptr || record->members != group.members ||
          record->epoch != state.committed_epoch())
        continue;  // stripe pending rebuild at the next epoch
      const parity::ReedSolomonCodec codec(group.members.size(),
                                           record->blocks.size());
      std::vector<parity::Block> padded;
      std::vector<parity::BlockView> views;
      bool complete = true;
      for (vm::VmId m : group.members) {
        const auto loc = cluster.locate(m);
        if (!loc.has_value()) {
          complete = false;
          break;
        }
        const auto* cp = mutable_state.node_store(*loc).find(
            m, state.committed_epoch());
        if (cp == nullptr) {
          complete = false;
          break;
        }
        padded.push_back(cp->padded_payload(record->block_size));
      }
      ASSERT_TRUE(complete) << "group " << group.id
                            << " lost a member checkpoint";
      for (const auto& p : padded) views.emplace_back(p);
      ASSERT_EQ(codec.encode(views), record->blocks)
          << "group " << group.id << " stripe does not decode";
    }
  }

  void check_vms() const {
    const auto vms = cluster.all_vms();
    ASSERT_EQ(vms.size(), 10u);
    for (vm::VmId vmid : vms) {
      const auto loc = cluster.locate(vmid);
      ASSERT_TRUE(loc.has_value());
      ASSERT_TRUE(cluster.node(*loc).alive());
    }
  }
};

class ProtocolInterleavings : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolInterleavings, InvariantsHoldUnderRandomOps) {
  Harness h(static_cast<std::uint64_t>(GetParam()));
  checkpoint::Epoch last_committed = 0;

  for (int step = 0; step < 24; ++step) {
    switch (h.rng.uniform_u64(6)) {
      case 0:
      case 1:
        h.cluster.advance_workloads(h.rng.uniform(0.1, 3.0));
        break;
      case 2:
        h.checkpoint(/*abort_midway=*/false);
        break;
      case 3:
        h.checkpoint(/*abort_midway=*/true);
        break;
      case 4:
        ASSERT_TRUE(h.fail_and_recover()) << "step " << step;
        break;
      case 5:
        h.corrupt_and_scrub();
        break;
    }
    // I3: committed epoch is monotone.
    ASSERT_GE(h.state.committed_epoch(), last_committed);
    last_committed = h.state.committed_epoch();
    // I1 + I4 after every step.
    h.check_stripes();
    h.check_vms();
  }

  // I2: end with a real failure + byte-exact recovery (after making sure
  // at least one epoch is committed).
  if (h.state.committed_epoch() == 0) {
    ASSERT_TRUE(h.checkpoint(false));
  }
  h.ensure_plan();
  ASSERT_TRUE(h.checkpoint(false));
  std::map<vm::VmId, std::vector<std::byte>> committed;
  for (vm::VmId vmid : h.cluster.all_vms())
    committed[vmid] = h.state.node_store(*h.cluster.locate(vmid))
                          .find(vmid, h.state.committed_epoch())
                          ->payload();
  const auto victim = h.cluster.alive_nodes()[2];
  const auto lost = h.cluster.node(victim).hypervisor().vm_ids();
  h.cluster.kill_node(victim);
  h.state.drop_node(victim);
  h.cluster.revive_node(victim);
  if (!lost.empty()) {
    bool ok = false;
    h.recovery.recover(*h.committed_plan, lost,
                       [&](const RecoveryStats& s) { ok = s.success; });
    h.sim.run();
    ASSERT_TRUE(ok);
    for (vm::VmId vmid : lost)
      ASSERT_EQ(h.cluster.machine(vmid).image().flatten(),
                committed.at(vmid));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolInterleavings,
                         ::testing::Range(1, 13));

// --- loss-pattern enumeration -----------------------------------------------
//
// Exhaustive survivability property over node-level loss patterns: every
// subset of one or two nodes either keeps each committed RAID group within
// the code's tolerance (RAID-5: one erasure per stripe, members + parity)
// and must reconstruct byte-exact, or exceeds it somewhere and must settle
// with success == false and a machine-readable reason — never a silent
// wrong answer in either direction.

TEST(LossPatterns, SurvivableDecodeByteExactUnsurvivableAreReported) {
  // Enumerate the patterns against one probe harness; the seed is fixed so
  // every per-pattern harness below sees the same plan.
  std::vector<std::vector<cluster::NodeId>> patterns;
  for (cluster::NodeId a = 0; a < 5; ++a) {
    patterns.push_back({a});
    for (cluster::NodeId b = a + 1; b < 5; ++b) patterns.push_back({a, b});
  }

  int survivable_seen = 0, unsurvivable_seen = 0;
  for (const auto& pattern : patterns) {
    Harness h(7);
    h.cluster.advance_workloads(2.0);
    ASSERT_TRUE(h.checkpoint(false));

    // Committed payload per VM, and per-group erasure counts this pattern
    // would cause (member shards on killed nodes + parity holders killed).
    std::map<vm::VmId, std::vector<std::byte>> committed;
    for (vm::VmId vmid : h.cluster.all_vms())
      committed[vmid] = h.state.node_store(*h.cluster.locate(vmid))
                            .find(vmid, h.state.committed_epoch())
                            ->payload();
    const auto killed = [&](cluster::NodeId n) {
      return std::find(pattern.begin(), pattern.end(), n) != pattern.end();
    };
    bool survivable = true;
    const auto& plan = *h.committed_plan;
    for (std::size_t gi = 0; gi < plan.plan.groups.size(); ++gi) {
      std::size_t erasures = 0;
      for (vm::VmId m : plan.plan.groups[gi].members)
        if (killed(*h.cluster.locate(m))) ++erasures;
      for (cluster::NodeId holder : plan.holders[gi])
        if (killed(holder)) ++erasures;
      if (erasures > 1) survivable = false;  // RAID-5 tolerance
    }

    std::vector<vm::VmId> lost;
    for (cluster::NodeId n : pattern) {
      const auto on_node = h.cluster.node(n).hypervisor().vm_ids();
      lost.insert(lost.end(), on_node.begin(), on_node.end());
      h.cluster.kill_node(n);
      h.state.drop_node(n);
      h.cluster.revive_node(n);
    }
    std::optional<RecoveryStats> stats;
    h.recovery.recover(*h.committed_plan, lost,
                       [&](const RecoveryStats& s) { stats = s; });
    h.sim.run();
    ASSERT_TRUE(stats.has_value());

    std::string label = "pattern {";
    for (cluster::NodeId n : pattern) {
      label += ' ';
      label += std::to_string(n);  // two appends: GCC 12 -Wrestrict FP on
    }                              // `const char* + std::string&&` (PR105329)
    label += " }";
    if (survivable) {
      ++survivable_seen;
      ASSERT_TRUE(stats->success) << label << ": " << stats->reason;
      for (vm::VmId vmid : lost)
        ASSERT_EQ(h.cluster.machine(vmid).image().flatten(),
                  committed.at(vmid))
            << label << " vm " << vmid;
    } else {
      ++unsurvivable_seen;
      ASSERT_FALSE(stats->success) << label;
      ASSERT_FALSE(stats->reason.empty()) << label;
    }
  }
  // Both branches of the property must actually have been exercised.
  EXPECT_GT(survivable_seen, 0);
  EXPECT_GT(unsurvivable_seen, 0);
}

}  // namespace
}  // namespace vdc::core
