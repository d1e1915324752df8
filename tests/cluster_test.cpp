// Tests for the cluster manager, VM addresses and the heartbeat detector.

#include <gtest/gtest.h>

#include "cluster/heartbeat.hpp"
#include "cluster/manager.hpp"
#include "vm/workload.hpp"

namespace vdc::cluster {
namespace {

std::unique_ptr<vm::Workload> idle() {
  return std::make_unique<vm::IdleWorkload>();
}

struct Rig {
  simkit::Simulator sim;
  ClusterManager cluster{sim, Rng(1)};
  Rig(std::uint32_t nodes = 3) {
    for (std::uint32_t i = 0; i < nodes; ++i) cluster.add_node();
  }
};

// A detector observed from node 0 whose beat emitters run while the
// cluster believes the node alive.
HeartbeatDetector make_detector(Rig& rig) {
  return HeartbeatDetector(
      rig.sim, rig.cluster, rig.cluster.fabric(), 0,
      [&rig](NodeId n) { return rig.cluster.node(n).alive(); });
}

TEST(ClusterManager, AddAndQueryNodes) {
  Rig rig;
  EXPECT_EQ(rig.cluster.node_count(), 3u);
  EXPECT_EQ(rig.cluster.alive_nodes(), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_TRUE(rig.cluster.node(0).alive());
  EXPECT_EQ(rig.cluster.node(1).name(), "node1");
  EXPECT_THROW(rig.cluster.node(9), ConfigError);
}

TEST(ClusterManager, BootPlacesAndBinds) {
  Rig rig;
  const vm::VmId id = rig.cluster.boot_vm(1, kib(4), 16, idle());
  EXPECT_EQ(rig.cluster.locate(id), 1u);
  EXPECT_TRUE(rig.cluster.node(1).hypervisor().hosts(id));
  EXPECT_EQ(rig.cluster.all_vms(), (std::vector<vm::VmId>{id}));
}

TEST(ClusterManager, KillNodeLosesItsVmsOnly) {
  Rig rig;
  const auto a = rig.cluster.boot_vm(0, kib(4), 8, idle());
  const auto b = rig.cluster.boot_vm(1, kib(4), 8, idle());
  const auto on_victim = rig.cluster.node(1).hypervisor().vm_ids();
  rig.cluster.kill_node(1);
  EXPECT_EQ(on_victim, (std::vector<vm::VmId>{b}));
  EXPECT_EQ(rig.cluster.node(1).hypervisor().vm_count(), 0u);
  EXPECT_FALSE(rig.cluster.node(1).alive());
  EXPECT_FALSE(rig.cluster.locate(b).has_value());
  EXPECT_TRUE(rig.cluster.locate(a).has_value());
  EXPECT_EQ(rig.cluster.alive_nodes(), (std::vector<NodeId>{0, 2}));
  EXPECT_THROW(rig.cluster.kill_node(1), ConfigError);  // already dead
}

TEST(ClusterManager, ReviveRestoresEmptyNode) {
  Rig rig;
  rig.cluster.boot_vm(2, kib(4), 8, idle());
  rig.cluster.kill_node(2);
  rig.cluster.revive_node(2);
  EXPECT_TRUE(rig.cluster.node(2).alive());
  EXPECT_EQ(rig.cluster.node(2).hypervisor().vm_count(), 0u);
  EXPECT_THROW(rig.cluster.revive_node(2), ConfigError);  // not dead
}

TEST(ClusterManager, PlaceRebindsName) {
  Rig rig;
  const auto id = rig.cluster.boot_vm(0, kib(4), 8, idle());
  auto machine = rig.cluster.node(0).hypervisor().evict(id);
  rig.cluster.place(std::move(machine), 2);
  EXPECT_EQ(rig.cluster.locate(id), 2u);
}

TEST(ClusterManager, BootOnDeadNodeRejected) {
  Rig rig;
  rig.cluster.kill_node(0);
  EXPECT_THROW(rig.cluster.boot_vm(0, kib(4), 8, idle()), ConfigError);
}

TEST(ClusterManager, AdvanceWorkloadsSkipsDeadNodes) {
  Rig rig;
  const auto a = rig.cluster.boot_vm(0, kib(4), 8,
                                     std::make_unique<vm::UniformWorkload>(
                                         100.0));
  rig.cluster.advance_workloads(1.0);
  EXPECT_GT(rig.cluster.machine(a).image().dirty_count(), 0u);
  EXPECT_DOUBLE_EQ(rig.cluster.machine(a).cpu_time(), 1.0);
}

TEST(ClusterManager, LeastLoadedNodeTieBreaksAndExclusions) {
  // Every re-placement (recovery targets, parity holders, restart and
  // NAS re-creation) goes through this one search; its lowest-id
  // tie-break is part of every placement the simulator makes.
  Rig rig(4);
  rig.cluster.boot_vm(0, kib(4), 8, idle());
  rig.cluster.boot_vm(1, kib(4), 8, idle());
  EXPECT_EQ(rig.cluster.least_loaded_node(), 2u);  // 2 and 3 tie at 0
  EXPECT_EQ(rig.cluster.least_loaded_node({2}), 3u);
  // Pending placements count as load.
  EXPECT_EQ(rig.cluster.least_loaded_node({}, {{2, 2}, {3, 1}}), 0u);
  // Excluded nodes are passed over unless every alive node is excluded.
  EXPECT_EQ(rig.cluster.least_loaded_node({0, 1, 2, 3}, {{3, 1}}), 2u);
  rig.cluster.kill_node(2);
  EXPECT_EQ(rig.cluster.least_loaded_node(), 3u);
  for (NodeId n : {0u, 1u, 3u}) rig.cluster.kill_node(n);
  EXPECT_THROW(rig.cluster.least_loaded_node(), ConfigError);
}

TEST(NameService, StableDerivedAddress) {
  EXPECT_EQ(vm_address(1), "10.0.0.1");
  EXPECT_EQ(vm_address(0x010203), "10.1.2.3");
}

TEST(Heartbeat, DetectsFailureWithinTimeout) {
  Rig rig;
  auto detector = make_detector(rig);
  std::optional<std::pair<NodeId, SimTime>> detected;
  detector.start([&](NodeId n, SimTime latency) {
    detected = {n, latency};
  });
  rig.sim.at(2.0, [&] {
    rig.cluster.kill_node(1);
    detector.note_failure(1, rig.sim.now());
  });
  rig.sim.run_until(5.0);
  detector.stop();
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(detected->first, 1u);
  // Latency within one heartbeat period of the timeout (the last
  // heartbeat may have landed just before the crash): 0.35–0.55 s.
  EXPECT_GE(detected->second, kHeartbeatTimeout - kHeartbeatPeriod - 1e-9);
  EXPECT_LE(detected->second, kHeartbeatTimeout + kHeartbeatPeriod + 1e-9);
  EXPECT_EQ(detector.detections(), 1u);
}

TEST(Heartbeat, LatencyOverOnePeriodOfCrashPhasesCentresOnTheTimeout) {
  // Crashes spread over one beat period. The detector's check and the
  // beats tick on one phase, so each latency lies within half a period
  // of the timeout and they average to the timeout itself (0.45 s). The
  // oracle path charges kExpectedDetectionLatency = timeout + period / 2
  // (0.5 s), which assumes the check's phase is independent of the
  // crash's.
  constexpr int kPhases = 20;
  double sum = 0.0;
  for (int j = 0; j < kPhases; ++j) {
    Rig rig;
    auto detector = make_detector(rig);
    std::optional<SimTime> latency;
    detector.start([&](NodeId, SimTime l) { latency = l; });
    const SimTime crash = 2.0 + kHeartbeatPeriod * j / kPhases;
    rig.sim.at(crash, [&] {
      rig.cluster.kill_node(1);
      detector.note_failure(1, rig.sim.now());
    });
    rig.sim.run_until(5.0);
    detector.stop();
    ASSERT_TRUE(latency.has_value()) << "crash at " << crash;
    EXPECT_GT(*latency, kHeartbeatTimeout - kHeartbeatPeriod / 2)
        << "crash at " << crash;
    EXPECT_LE(*latency, kHeartbeatTimeout + kHeartbeatPeriod / 2)
        << "crash at " << crash;
    sum += *latency;
  }
  EXPECT_NEAR(sum / kPhases, kHeartbeatTimeout, kHeartbeatPeriod / 4);
}

TEST(Heartbeat, ReportsEachFailureOnce) {
  Rig rig;
  auto detector = make_detector(rig);
  int detections = 0;
  detector.start([&](NodeId, SimTime) { ++detections; });
  rig.sim.at(1.0, [&] {
    rig.cluster.kill_node(0);
    detector.note_failure(0, rig.sim.now());
  });
  rig.sim.run_until(10.0);
  detector.stop();
  EXPECT_EQ(detections, 1);
}

TEST(Heartbeat, RepairReArms) {
  Rig rig;
  auto detector = make_detector(rig);
  std::vector<SimTime> detections;
  detector.start([&](NodeId, SimTime) { detections.push_back(rig.sim.now()); });
  rig.sim.at(1.0, [&] {
    rig.cluster.kill_node(0);
    detector.note_failure(0, rig.sim.now());
  });
  rig.sim.at(3.0, [&] {
    rig.cluster.revive_node(0);
    detector.note_repair(0);
  });
  rig.sim.at(5.0, [&] {
    rig.cluster.kill_node(0);
    detector.note_failure(0, rig.sim.now());
  });
  rig.sim.run_until(10.0);
  detector.stop();
  EXPECT_EQ(detections.size(), 2u);
}

TEST(Heartbeat, StopAndRestartLifecycle) {
  Rig rig;
  auto detector = make_detector(rig);
  int detections = 0;
  detector.start([&](NodeId, SimTime) { ++detections; });
  rig.sim.run_until(1.0);
  detector.stop();
  // While stopped, a failure goes unnoticed.
  rig.cluster.kill_node(2);
  detector.note_failure(2, rig.sim.now());
  rig.sim.run_until(3.0);
  EXPECT_EQ(detections, 0);
  // Restarting picks the failure up.
  detector.start([&](NodeId n, SimTime) {
    EXPECT_EQ(n, 2u);
    ++detections;
  });
  rig.sim.run_until(5.0);
  detector.stop();
  EXPECT_EQ(detections, 1);
  // stop() is idempotent and a second restart still works.
  detector.stop();
  detector.start([&](NodeId, SimTime) { ++detections; });
  rig.sim.run_until(6.0);
  detector.stop();
  EXPECT_EQ(detections, 1);  // node 2 already reported, no re-report
}

TEST(Heartbeat, RepairReArmsAfterDetectedFailure) {
  // note_repair after a *reported* failure must clear the report so the
  // node's next failure is detected again (regression: a stale `reported`
  // flag silently disabled detection for revived nodes).
  Rig rig;
  auto detector = make_detector(rig);
  std::vector<SimTime> detections;
  detector.start([&](NodeId, SimTime) { detections.push_back(rig.sim.now()); });
  rig.sim.at(1.0, [&] {
    rig.cluster.kill_node(1);
    detector.note_failure(1, rig.sim.now());
  });
  rig.sim.run_until(2.0);
  ASSERT_EQ(detections.size(), 1u);  // first failure detected...
  rig.cluster.revive_node(1);
  detector.note_repair(1);  // ...then repaired
  rig.sim.at(3.0, [&] {
    rig.cluster.kill_node(1);
    detector.note_failure(1, rig.sim.now());
  });
  rig.sim.run_until(5.0);
  detector.stop();
  EXPECT_EQ(detections.size(), 2u);
}

TEST(Heartbeat, NoteFailureOnSuspectedNodeDoesNotRereport) {
  // A partition gets node 1 suspected; when it then *really* dies,
  // note_failure must not produce a second report.
  Rig rig;
  auto detector = make_detector(rig);
  int detections = 0;
  detector.start([&](NodeId n, SimTime) {
    EXPECT_EQ(n, 1u);
    ++detections;
  });
  rig.sim.at(1.0, [&] {
    rig.cluster.fabric().faults().set_partition_group(
        rig.cluster.node(1).host(), 1);
  });
  rig.sim.run_until(2.0);
  EXPECT_EQ(detections, 1);
  EXPECT_TRUE(detector.suspected(1));
  rig.sim.at(2.5, [&] {
    rig.cluster.kill_node(1);
    detector.note_failure(1, rig.sim.now());
  });
  rig.sim.run_until(5.0);
  detector.stop();
  EXPECT_EQ(detections, 1);         // still just the one report
  EXPECT_FALSE(detector.suspected(1));  // ...now a confirmed failure
}

TEST(Heartbeat, WireModePartitionCausesFalsePositiveAndHealExposesIt) {
  Rig rig;
  auto detector = make_detector(rig);
  std::optional<NodeId> false_positive;
  detector.set_on_false_positive([&](NodeId n) { false_positive = n; });
  std::optional<std::pair<NodeId, SimTime>> detected;
  detector.start([&](NodeId n, SimTime latency) { detected = {n, latency}; });
  rig.sim.at(1.0, [&] {
    rig.cluster.fabric().faults().set_partition_group(
        rig.cluster.node(2).host(), 1);
  });
  rig.sim.run_until(3.0);
  // The alive-but-unreachable node was declared failed...
  ASSERT_TRUE(detected.has_value());
  EXPECT_EQ(detected->first, 2u);
  EXPECT_GE(detected->second, kHeartbeatTimeout - 1e-9);
  EXPECT_TRUE(detector.suspected(2));
  EXPECT_TRUE(rig.cluster.node(2).alive());
  EXPECT_FALSE(false_positive.has_value());
  EXPECT_GE(rig.sim.telemetry().metrics().value("hb.suspected"), 1.0);
  // ...and healing the partition lets a beat through, exposing the
  // mistake exactly once.
  rig.sim.at(3.0, [&] {
    rig.cluster.fabric().faults().heal(rig.cluster.node(2).host());
  });
  rig.sim.run_until(5.0);
  detector.stop();
  ASSERT_TRUE(false_positive.has_value());
  EXPECT_EQ(*false_positive, 2u);
  EXPECT_DOUBLE_EQ(rig.sim.telemetry().metrics().value("hb.false_positives"),
                   1.0);
}

TEST(Heartbeat, WireModeHealthyClusterStaysQuiet) {
  Rig rig;
  auto detector = make_detector(rig);
  int detections = 0;
  detector.start([&](NodeId, SimTime) { ++detections; });
  rig.sim.run_until(10.0);
  detector.stop();
  EXPECT_EQ(detections, 0);
}

TEST(ClusterManager, FencingTokensRoundTrip) {
  Rig rig;
  EXPECT_FALSE(rig.cluster.is_fenced(1));
  EXPECT_EQ(rig.cluster.fence_token(1), 0u);
  rig.cluster.fence_node(1, 7);
  EXPECT_TRUE(rig.cluster.is_fenced(1));
  EXPECT_EQ(rig.cluster.fence_token(1), 7u);
  rig.cluster.fence_node(1, 9);  // re-fencing overwrites
  EXPECT_EQ(rig.cluster.fence_token(1), 9u);
  EXPECT_FALSE(rig.cluster.is_fenced(0));
  rig.cluster.lift_fence(1);
  EXPECT_FALSE(rig.cluster.is_fenced(1));
  EXPECT_EQ(rig.cluster.fence_token(1), 0u);
  EXPECT_THROW(rig.cluster.fence_node(1, 0), ConfigError);  // 0 reserved
  EXPECT_THROW(rig.cluster.fence_node(99, 1), ConfigError);
}

}  // namespace
}  // namespace vdc::cluster
