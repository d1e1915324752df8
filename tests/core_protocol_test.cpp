// Tests for the DVDC checkpoint protocol: parity correctness, incremental
// epochs, COW vs synchronous timing and abort safety. The multi-holder
// Reed-Solomon stripes are covered in core_rs_test.

#include <gtest/gtest.h>

#include "core/plan.hpp"
#include "core/protocol.hpp"
#include "parity/reed_solomon.hpp"
#include "parity/xor.hpp"
#include "telemetry/sinks.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

struct Rig {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(1)};
  DvdcState state;

  Rig(std::uint32_t nodes, std::uint32_t vms_per_node,
      double write_rate = 200.0) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < nodes; ++n) {
      for (std::uint32_t v = 0; v < vms_per_node; ++v) {
        cluster.boot_vm(n, kib(1), 32,
                        write_rate > 0
                            ? std::unique_ptr<vm::Workload>(
                                  std::make_unique<vm::UniformWorkload>(
                                      write_rate))
                            : std::make_unique<vm::IdleWorkload>());
      }
    }
  }

  PlacedPlan plan() {
    return PlacedPlan::make(GroupPlanner().plan(cluster), cluster);
  }

  EpochStats run_one(DvdcCoordinator& coord, const PlacedPlan& placed,
                     checkpoint::Epoch epoch) {
    std::optional<EpochStats> stats;
    coord.run_epoch(placed, epoch,
                    [&](const EpochStats& s) { stats = s; });
    sim.run();
    EXPECT_TRUE(stats.has_value());
    return *stats;
  }
};

// Verify every group's committed parity against a from-scratch encode of
// the members' committed checkpoints.
void expect_parity_consistent(Rig& rig, const PlacedPlan& placed) {
  const auto epoch = rig.state.committed_epoch();
  for (const auto& group : placed.plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr) << "group " << group.id;
    ASSERT_EQ(record->epoch, epoch);
    const parity::ReedSolomonCodec codec(group.members.size(),
                                         record->blocks.size());
    std::vector<parity::Block> padded;
    std::vector<parity::BlockView> views;
    for (vm::VmId m : group.members) {
      const auto loc = rig.cluster.locate(m);
      ASSERT_TRUE(loc.has_value());
      const auto* cp = rig.state.node_store(*loc).find(m, epoch);
      ASSERT_NE(cp, nullptr) << "vm " << m;
      padded.push_back(cp->padded_payload(record->block_size));
    }
    for (const auto& p : padded) views.emplace_back(p);
    const auto expect = codec.encode(views);
    ASSERT_EQ(expect.size(), record->blocks.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
      EXPECT_EQ(expect[i], record->blocks[i])
          << "group " << group.id << " parity " << i;
  }
}

TEST(Protocol, FirstEpochBuildsCorrectParity) {
  Rig rig(4, 3);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  auto stats = rig.run_one(coord, placed, 1);
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_TRUE(stats.full_exchange);
  EXPECT_EQ(stats.groups, 4u);
  EXPECT_EQ(rig.state.committed_epoch(), 1u);
  expect_parity_consistent(rig, placed);
}

TEST(Protocol, CheckpointContentIsTheCut) {
  Rig rig(3, 1, 0.0);  // idle guests
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  std::vector<std::vector<std::byte>> at_cut;
  for (vm::VmId vmid : rig.cluster.all_vms())
    at_cut.push_back(rig.cluster.machine(vmid).image().flatten());
  rig.run_one(coord, placed, 1);
  std::size_t i = 0;
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    const auto loc = rig.cluster.locate(vmid);
    const auto* cp = rig.state.node_store(*loc).find(vmid, 1);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->payload(), at_cut[i++]);
  }
}

TEST(Protocol, IncrementalEpochsKeepParityExact) {
  Rig rig(4, 3, /*write_rate=*/400.0);
  ProtocolConfig config;
  config.incremental = true;
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  auto placed = rig.plan();

  auto s1 = rig.run_one(coord, placed, 1);
  EXPECT_TRUE(s1.full_exchange);

  for (checkpoint::Epoch e = 2; e <= 4; ++e) {
    rig.cluster.advance_workloads(1.0);  // dirty some pages
    auto stats = rig.run_one(coord, placed, e);
    EXPECT_FALSE(stats.full_exchange) << "epoch " << e;
    // Deltas move fewer bytes than full images.
    EXPECT_LT(stats.bytes_shipped, s1.bytes_shipped) << "epoch " << e;
    expect_parity_consistent(rig, placed);
  }
}

TEST(Protocol, IncrementalDisabledShipsFullEveryEpoch) {
  Rig rig(3, 2, 100.0);
  ProtocolConfig config;
  config.incremental = false;
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  rig.cluster.advance_workloads(1.0);
  auto s2 = rig.run_one(coord, placed, 2);
  EXPECT_TRUE(s2.full_exchange);
  expect_parity_consistent(rig, placed);
}

TEST(Protocol, CowOverheadIsBaseOnly) {
  Rig rig(4, 3);
  ProtocolConfig config;
  config.copy_on_write = true;
  config.base_overhead = 0.040;
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  auto placed = rig.plan();
  auto stats = rig.run_one(coord, placed, 1);
  EXPECT_NEAR(stats.overhead, 0.040, 1e-9);
  EXPECT_GT(stats.latency, stats.overhead);
}

TEST(Protocol, SynchronousOverheadEqualsLatency) {
  Rig rig(4, 3);
  ProtocolConfig config;
  config.copy_on_write = false;
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  auto placed = rig.plan();
  auto stats = rig.run_one(coord, placed, 1);
  EXPECT_NEAR(stats.overhead, stats.latency, 1e-9);
}

TEST(Protocol, GuestsResumeAfterCommit) {
  Rig rig(3, 2);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  for (vm::VmId vmid : rig.cluster.all_vms())
    EXPECT_EQ(rig.cluster.machine(vmid).state(), vm::VmState::Running);
}

TEST(Protocol, OldEpochGarbageCollected) {
  Rig rig(3, 2, 100.0);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  rig.cluster.advance_workloads(1.0);
  rig.run_one(coord, placed, 2);
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    const auto loc = rig.cluster.locate(vmid);
    EXPECT_EQ(rig.state.node_store(*loc).find(vmid, 1), nullptr);
    EXPECT_NE(rig.state.node_store(*loc).find(vmid, 2), nullptr);
  }
}

TEST(Protocol, AbortLeavesCommittedEpochIntact) {
  Rig rig(4, 3, 100.0);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  const auto committed = rig.state.committed_epoch();

  // Start epoch 2 and abort it mid-flight.
  rig.cluster.advance_workloads(1.0);
  bool committed2 = false;
  coord.run_epoch(placed, 2, [&](const EpochStats&) { committed2 = true; });
  rig.sim.run(5);  // a few events in: capture done, exchange under way
  EXPECT_TRUE(coord.epoch_in_flight());
  coord.abort();
  rig.sim.run();

  EXPECT_FALSE(committed2);
  EXPECT_EQ(rig.state.committed_epoch(), committed);
  // Epoch-2 captures were discarded; epoch-1 checkpoints and parity are
  // still a consistent stripe.
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    const auto loc = rig.cluster.locate(vmid);
    EXPECT_EQ(rig.state.node_store(*loc).find(vmid, 2), nullptr);
    EXPECT_NE(rig.state.node_store(*loc).find(vmid, 1), nullptr);
  }
  expect_parity_consistent(rig, placed);
}

TEST(Protocol, EpochAfterAbortWorks) {
  Rig rig(3, 2, 100.0);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  rig.cluster.advance_workloads(1.0);
  coord.run_epoch(placed, 2, [](const EpochStats&) {});
  rig.sim.run(3);
  coord.abort();
  rig.sim.run();
  // A later epoch (same number re-used is fine: it never committed).
  rig.cluster.advance_workloads(1.0);
  auto stats = rig.run_one(coord, placed, 2);
  EXPECT_EQ(rig.state.committed_epoch(), 2u);
  expect_parity_consistent(rig, placed);
  (void)stats;
}

TEST(Protocol, MemoryAccountingTracksStripes) {
  Rig rig(4, 3);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  EXPECT_EQ(rig.state.memory_bytes(), 0u);
  rig.run_one(coord, placed, 1);
  // 12 checkpoints + 4 parity blocks of 32 KiB each.
  EXPECT_EQ(rig.state.memory_bytes(), 16u * kib(1) * 32);
}

TEST(Protocol, EpochMustAdvance) {
  Rig rig(3, 1);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  rig.run_one(coord, placed, 1);
  EXPECT_THROW(coord.run_epoch(placed, 1, [](const EpochStats&) {}),
               ConfigError);
}

TEST(Protocol, OneEpochAtATime) {
  Rig rig(3, 1);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  coord.run_epoch(placed, 1, [](const EpochStats&) {});
  EXPECT_THROW(coord.run_epoch(placed, 2, [](const EpochStats&) {}),
               ConfigError);
  rig.sim.run();
}

TEST(Protocol, EpochEmitsSixPhaseSpansInOrder) {
  Rig rig(4, 3);
  auto sink = std::make_shared<telemetry::InMemorySink>();
  rig.sim.telemetry().set_enabled(true);
  rig.sim.telemetry().add_sink(sink);

  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  auto stats = rig.run_one(coord, placed, 1);

  // Exactly one span per phase, emitted in protocol order, all children of
  // the one root "epoch" span.
  const char* phases[] = {"epoch.quiesce",  "epoch.capture", "epoch.resume",
                          "epoch.exchange", "epoch.parity",  "epoch.commit"};
  const auto roots = sink->named("epoch");
  ASSERT_EQ(roots.size(), 1u);
  std::vector<telemetry::SpanRecord> seen;
  for (const auto& span : sink->spans())
    if (span.name.rfind("epoch.", 0) == 0 && span.name != "epoch.group")
      seen.push_back(span);
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(seen[i].name, phases[i]);
    EXPECT_EQ(seen[i].parent, roots[0].id);
  }

  // The phases partition [start, commit]: contiguous, and their durations
  // sum to the epoch latency, with quiesce+capture equal to the overhead.
  for (std::size_t i = 1; i < 6; ++i)
    EXPECT_DOUBLE_EQ(seen[i].start, seen[i - 1].end) << phases[i];
  EXPECT_DOUBLE_EQ(seen[0].start, roots[0].start);
  EXPECT_DOUBLE_EQ(seen[5].end, roots[0].end);
  EXPECT_NEAR(seen[0].duration() + seen[1].duration(), stats.overhead, 1e-9);
  double total = 0.0;
  for (const auto& span : seen) total += span.duration();
  EXPECT_NEAR(total, stats.latency, 1e-9);
}

TEST(Protocol, DisabledTelemetryEmitsNoSpans) {
  Rig rig(4, 3);
  auto sink = std::make_shared<telemetry::InMemorySink>();
  rig.sim.telemetry().add_sink(sink);  // tracing left disabled

  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  auto stats = rig.run_one(coord, placed, 1);
  EXPECT_TRUE(sink->spans().empty());
  // The registry still drives the stats façade.
  EXPECT_GT(stats.bytes_shipped, 0u);
}

TEST(Protocol, ShippedBytesReflectCompression) {
  // With a tiny dirty set, the compressed wire bytes should be far below
  // both the full image and the raw dirty pages.
  Rig rig(3, 1, 0.0);
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state);
  auto placed = rig.plan();
  auto s1 = rig.run_one(coord, placed, 1);

  // One 8-byte write into one page of each VM.
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    std::vector<std::byte> w(8, std::byte{0x77});
    rig.cluster.machine(vmid).image().write(3, 10, w);
  }
  auto s2 = rig.run_one(coord, placed, 2);
  EXPECT_LT(s2.bytes_shipped, s1.bytes_shipped / 10);
  EXPECT_EQ(s2.raw_dirty_bytes, 3u * kib(1));  // one page per VM
  expect_parity_consistent(rig, placed);
}

}  // namespace
}  // namespace vdc::core
