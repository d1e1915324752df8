// Abort-path coverage for the parity-delta fold.
//
// The data plane folds each epoch's deltas into the committed parity
// record IN PLACE as delta chunks arrive off the wire, so the standing
// parity is mutated while the exchange is still in flight. An abort must
// therefore (a) fold every byte already fed a second time, which returns
// each parity byte to its committed value because GF(2^8) has
// characteristic 2, (b) discard the aborted captures, and (c) re-mark the
// consumed dirty pages so the next epoch's delta still covers everything
// changed since the committed cut. This suite proves all three for RAID-5
// (same-offset XOR) and Reed-Solomon RS(k,2) (coefficient-scaled folds at
// the same offset): on uniform groups, on groups whose members differ in
// page size and image size, with streams cut at any chunk boundary, and
// with a holder's block dropped mid-epoch.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/plan.hpp"
#include "core/protocol.hpp"
#include "core/recovery.hpp"
#include "fuzz_seeds.hpp"
#include "parity/reed_solomon.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

struct Rig {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(7)};
  DvdcState state;

  /// Five nodes of two 32-page, 1 KiB-page guests. `mixed` boots six
  /// nodes instead, whose guests draw 1/2/4 KiB pages and 5-40 pages each.
  explicit Rig(bool mixed = false) {
    const int nodes = mixed ? 6 : 5;
    Rng shapes(5);
    for (int n = 0; n < nodes; ++n) cluster.add_node();
    for (int n = 0; n < nodes; ++n)
      for (int v = 0; v < 2; ++v) {
        const Bytes page_size = mixed ? kib(1) << shapes.uniform_u64(3)
                                      : kib(1);
        const std::size_t pages = mixed ? 5 + shapes.uniform_u64(36) : 32;
        cluster.boot_vm(n, page_size, pages,
                        std::make_unique<vm::UniformWorkload>(300.0));
      }
  }

  PlacedPlan plan(ParityScheme scheme) {
    PlannerConfig pc;
    pc.group_size = 3;
    return PlacedPlan::make(GroupPlanner(pc).plan(cluster), cluster, scheme);
  }

  EpochStats run_one(DvdcCoordinator& coord, const PlacedPlan& placed,
                     checkpoint::Epoch epoch) {
    std::optional<EpochStats> stats;
    coord.run_epoch(placed, epoch, [&](const EpochStats& s) { stats = s; });
    sim.run();
    EXPECT_TRUE(stats.has_value());
    return *stats;
  }
};

using ParityBlocks = std::map<GroupId, std::vector<parity::Block>>;

ParityBlocks snapshot_parity(Rig& rig, const PlacedPlan& placed) {
  ParityBlocks out;
  for (const auto& group : placed.plan.groups) {
    const auto* record = rig.state.parity(group.id);
    EXPECT_NE(record, nullptr);
    if (record) out[group.id] = record->blocks;
  }
  return out;
}

/// Every parity byte is back to its committed (epoch 1) value.
void expect_parity_restored(Rig& rig, const ParityBlocks& committed) {
  EXPECT_FALSE(rig.state.fold_in_flight());
  EXPECT_EQ(rig.state.committed_epoch(), 1u);
  for (const auto& [gid, blocks] : committed) {
    const auto* record = rig.state.parity(gid);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->epoch, 1u);
    ASSERT_EQ(record->blocks.size(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i)
      EXPECT_EQ(record->blocks[i], blocks[i])
          << "group " << gid << " parity " << i << " not unwound";
  }
}

/// Run epoch 2 to commit and check every stripe against a from-scratch
/// encode of the new checkpoints. `incremental`: every group must ship
/// deltas (no holder or store was lost).
void rerun_matches_fresh_encode(Rig& rig, DvdcCoordinator& coord,
                                const PlacedPlan& placed, bool incremental) {
  auto s2 = rig.run_one(coord, placed, 2);
  ASSERT_TRUE(s2.committed);
  if (incremental) {
    EXPECT_FALSE(s2.full_exchange);
  }
  EXPECT_EQ(rig.state.committed_epoch(), 2u);
  for (const auto& group : placed.plan.groups) {
    const auto* record = rig.state.parity(group.id);
    ASSERT_NE(record, nullptr);
    const parity::ReedSolomonCodec codec(group.members.size(),
                                         record->blocks.size());
    std::vector<parity::Block> padded;
    std::vector<parity::BlockView> views;
    for (vm::VmId m : group.members) {
      const auto loc = rig.cluster.locate(m);
      ASSERT_TRUE(loc.has_value());
      const auto* cp = rig.state.node_store(*loc).find(m, 2);
      ASSERT_NE(cp, nullptr);
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

std::map<vm::VmId, std::set<vm::PageIndex>> snapshot_dirty(Rig& rig) {
  std::map<vm::VmId, std::set<vm::PageIndex>> out;
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    const auto pages =
        rig.cluster.machine(vmid).image().dirty_pages();
    out[vmid] = {pages.begin(), pages.end()};
  }
  return out;
}

/// Commit epoch 1, abort epoch 2 once its folds have mutated the standing
/// parity and check that the abort (a) restores every parity byte, (b)
/// drops the aborted captures and (c) re-marks the consumed dirty pages;
/// then re-run epoch 2 and check its parity against a fresh encode.
void abort_then_rerun(Rig& rig, DvdcCoordinator& coord,
                      const PlacedPlan& placed) {
  auto s1 = rig.run_one(coord, placed, 1);
  ASSERT_TRUE(s1.committed);
  rig.cluster.advance_workloads(1.0);

  const ParityBlocks committed = snapshot_parity(rig, placed);
  const auto dirty_before = snapshot_dirty(rig);
  std::size_t total_dirty = 0;
  for (const auto& [vmid, pages] : dirty_before) total_dirty += pages.size();
  ASSERT_GT(total_dirty, 0u) << "workload produced no dirty pages";

  // Launch epoch 2. The data plane folds deltas into the committed record
  // in place as chunks arrive, so pumping the exchange event-by-event must
  // eventually mutate the standing parity mid-flight — exactly the window
  // an abort must unwind.
  bool finished = false;
  coord.run_epoch(placed, 2, [&](const EpochStats&) { finished = true; });
  ASSERT_TRUE(rig.state.fold_in_flight());
  bool any_mutated = false;
  for (int step = 0; step < 10000 && !any_mutated && !finished; ++step) {
    rig.sim.run(1);
    for (const auto& [gid, blocks] : committed) {
      const auto* record = rig.state.parity(gid);
      ASSERT_NE(record, nullptr);
      if (record->blocks != blocks) any_mutated = true;
    }
  }
  EXPECT_TRUE(any_mutated) << "no in-place fold happened; test is vacuous";
  ASSERT_FALSE(finished);
  coord.abort();
  rig.sim.run();

  // (a) Every parity byte is back to its committed value.
  expect_parity_restored(rig, committed);

  // (b) The aborted epoch's captures are gone, epoch 1's remain.
  for (vm::VmId vmid : rig.cluster.all_vms()) {
    const auto loc = rig.cluster.locate(vmid);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(rig.state.node_store(*loc).find(vmid, 2), nullptr);
    EXPECT_NE(rig.state.node_store(*loc).find(vmid, 1), nullptr);
  }

  // (c) Every dirty page the capture consumed is marked again.
  const auto dirty_after = snapshot_dirty(rig);
  for (const auto& [vmid, pages] : dirty_before) {
    const auto& after = dirty_after.at(vmid);
    for (vm::PageIndex p : pages)
      EXPECT_TRUE(after.count(p))
          << "vm " << vmid << " page " << p << " lost its dirty bit";
  }

  // The next epoch folds the same deltas again and commits a stripe that
  // matches a from-scratch encode of the new checkpoints.
  rerun_matches_fresh_encode(rig, coord, placed, /*incremental=*/true);
}

class DeltaAbort : public ::testing::TestWithParam<ParityScheme> {};

TEST_P(DeltaAbort, MidEpochAbortUnwindsFoldAndRemarksDirty) {
  Rig rig;
  ProtocolConfig config;
  config.scheme = GetParam();
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  const auto placed = rig.plan(GetParam());
  abort_then_rerun(rig, coord, placed);
}

// Stripe members that differ in page size and image size: the stripe is
// padded to its widest member and the runs of different members overlap
// in the holder blocks, which the refold must still unwind exactly (the
// folds are additions, so their order does not matter).
TEST_P(DeltaAbort, MixedGeometryAbortRerunAndRebuild) {
  Rig rig(/*mixed=*/true);
  ProtocolConfig config;
  config.scheme = GetParam();
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  const auto placed = rig.plan(GetParam());
  bool mixed = false;
  for (const auto& group : placed.plan.groups) {
    std::set<Bytes> page_sizes, image_sizes;
    for (vm::VmId vmid : group.members) {
      const auto& image = rig.cluster.machine(vmid).image();
      page_sizes.insert(image.page_size());
      image_sizes.insert(image.size_bytes());
    }
    mixed = mixed || (page_sizes.size() > 1 && image_sizes.size() > 1);
  }
  ASSERT_TRUE(mixed) << "no stripe mixes geometries; test is vacuous";

  abort_then_rerun(rig, coord, placed);
  if (HasFatalFailure()) return;

  // Kill m member nodes of one stripe. A node holds at most one block of
  // any stripe, so no stripe loses more than m.
  std::map<vm::VmId, std::vector<std::byte>> committed;
  for (vm::VmId vmid : rig.cluster.all_vms())
    committed[vmid] =
        rig.state.node_store(*rig.cluster.locate(vmid)).find(vmid, 2)
            ->payload();
  const auto& group = placed.plan.groups[0];
  std::vector<vm::VmId> lost;
  for (std::size_t i = 0; i < parity_width(GetParam()); ++i) {
    const auto node = *rig.cluster.locate(group.members[i]);
    const auto vms = rig.cluster.node(node).hypervisor().vm_ids();
    lost.insert(lost.end(), vms.begin(), vms.end());
    rig.cluster.kill_node(node);
    rig.state.drop_node(node);
  }
  RecoveryManager recovery(
      rig.sim, rig.cluster, rig.state,
      [](vm::VmId) -> std::unique_ptr<vm::Workload> {
        return std::make_unique<vm::IdleWorkload>();
      });
  std::optional<RecoveryStats> stats;
  recovery.recover(placed, lost, [&](const RecoveryStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  ASSERT_TRUE(stats->success) << stats->reason;
  for (vm::VmId vmid : lost)
    EXPECT_EQ(rig.cluster.machine(vmid).image().flatten(),
              committed.at(vmid))
        << "vm " << vmid;
}

TEST_P(DeltaAbort, DoubleAbortThenCommitStaysExact) {
  // Two consecutive aborted epochs stack their refolds and dirty
  // re-marks; the third attempt must still commit an exact stripe.
  Rig rig;
  ProtocolConfig config;
  config.scheme = GetParam();
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  auto placed = rig.plan(GetParam());
  rig.run_one(coord, placed, 1);

  const ParityBlocks committed = snapshot_parity(rig, placed);
  for (int attempt = 0; attempt < 2; ++attempt) {
    rig.cluster.advance_workloads(0.5);
    coord.run_epoch(placed, 2, [](const EpochStats&) {});
    rig.sim.run(2);
    coord.abort();
    rig.sim.run();
    for (const auto& [gid, blocks] : committed) {
      const auto* record = rig.state.parity(gid);
      ASSERT_NE(record, nullptr);
      EXPECT_EQ(record->blocks, blocks) << "attempt " << attempt;
    }
  }

  auto s = rig.run_one(coord, placed, 2);
  ASSERT_TRUE(s.committed);
  EXPECT_EQ(rig.state.committed_epoch(), 2u);
}

// Chunked streams fold at every chunk boundary, so an abort can catch a
// stream cut inside a record's meta, a varint or a literal run. Each seed
// draws a chunk size in [1, 97], counts the events epoch 2 takes
// undisturbed, then aborts after the n-th event for n across that whole
// span, each time on a fresh rig. Epoch 1 commits through an unchunked
// coordinator so that byte-sized chunks stay cheap; the chunked one takes
// over the committed state from epoch 2 on (its first capture compares
// every page, since it never cleared the dirty log, and ships the same
// frames).
TEST_P(DeltaAbort, ChunkedAbortAnywhereRestoresParity) {
  constexpr int kCuts = 12;
  const int seeds = fuzz_seed_count(4);
  for (int seed = 0; seed < seeds; ++seed) {
    Rng draw(0xAB0u + static_cast<std::uint64_t>(seed));
    ProtocolConfig chunked;
    chunked.scheme = GetParam();
    chunked.chunking.chunk_bytes = 1 + draw.uniform_u64(97);
    SCOPED_TRACE("seed " + std::to_string(seed) + ": chunk " +
                 std::to_string(chunked.chunking.chunk_bytes) + " B");
    ProtocolConfig whole;
    whole.scheme = GetParam();

    // Aborts after `cut` events of epoch 2 (never, for cut == 0); returns
    // the events epoch 2 took and whether the abort caught any fold.
    const auto run = [&](std::uint64_t cut) {
      Rig rig;
      DvdcCoordinator first(rig.sim, rig.cluster, rig.state, whole);
      DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, chunked);
      const auto placed = rig.plan(GetParam());
      EXPECT_TRUE(rig.run_one(first, placed, 1).committed);
      rig.cluster.advance_workloads(0.02);
      const ParityBlocks committed = snapshot_parity(rig, placed);
      const std::uint64_t start = rig.sim.executed();
      bool finished = false;
      coord.run_epoch(placed, 2, [&](const EpochStats&) { finished = true; });
      if (cut == 0) {
        rig.sim.run();
        EXPECT_TRUE(finished);
        return std::pair{rig.sim.executed() - start, false};
      }
      rig.sim.run(cut);
      EXPECT_FALSE(finished) << "cut " << cut;
      bool mutated = false;
      for (const auto& [gid, blocks] : committed)
        mutated = mutated || rig.state.parity(gid)->blocks != blocks;
      coord.abort();
      rig.sim.run();
      expect_parity_restored(rig, committed);
      rerun_matches_fresh_encode(rig, coord, placed, /*incremental=*/true);
      return std::pair{cut, mutated};
    };

    const std::uint64_t events = run(0).first;
    ASSERT_GT(events, 2u);
    int caught = 0;
    for (int j = 0; j < kCuts; ++j) {
      const std::uint64_t cut = 1 + (events - 2) * j / (kCuts - 1);
      caught += run(cut).second ? 1 : 0;
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(caught, 0) << "no abort caught a fold; test is vacuous";
  }
}

// A holder whose node is dropped mid-epoch loses its block (cleared by
// drop_node). The abort must skip that block, restore every surviving
// holder's bytes, and leave the system able to commit the next epoch.
TEST_P(DeltaAbort, DroppedHolderIsSkippedOnAbort) {
  Rig rig;
  ProtocolConfig config;
  config.scheme = GetParam();
  config.chunking.chunk_bytes = 512;
  DvdcCoordinator coord(rig.sim, rig.cluster, rig.state, config);
  const auto placed = rig.plan(GetParam());
  ASSERT_TRUE(rig.run_one(coord, placed, 1).committed);
  rig.cluster.advance_workloads(1.0);
  const ParityBlocks committed = snapshot_parity(rig, placed);

  // Step until folds have reached blocks on two different holder nodes.
  const auto holder_of = [&](GroupId gid, std::size_t i) {
    return rig.state.parity(gid)->holders[i];
  };
  const auto mutated_nodes = [&] {
    std::set<cluster::NodeId> nodes;
    for (const auto& [gid, blocks] : committed)
      for (std::size_t i = 0; i < blocks.size(); ++i)
        if (rig.state.parity(gid)->blocks[i] != blocks[i])
          nodes.insert(holder_of(gid, i));
    return nodes;
  };
  bool finished = false;
  coord.run_epoch(placed, 2, [&](const EpochStats&) { finished = true; });
  while (mutated_nodes().size() < 2 && !finished) rig.sim.run(1);
  ASSERT_FALSE(finished) << "epoch committed before two holders folded";
  const std::set<cluster::NodeId> folded = mutated_nodes();
  const cluster::NodeId dropped = *folded.begin();

  rig.state.drop_node(dropped);
  coord.abort();
  rig.sim.run();

  EXPECT_FALSE(rig.state.fold_in_flight());
  for (const auto& [gid, blocks] : committed) {
    const auto* record = rig.state.parity(gid);
    ASSERT_NE(record, nullptr);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      if (record->holders[i] == dropped)
        EXPECT_TRUE(record->blocks[i].empty())
            << "group " << gid << " parity " << i << " on the dropped node";
      else
        EXPECT_EQ(record->blocks[i], blocks[i])
            << "group " << gid << " parity " << i << " not unwound";
    }
  }
  rerun_matches_fresh_encode(rig, coord, placed, /*incremental=*/false);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeltaAbort,
                         ::testing::Values(ParityScheme::Raid5,
                                           ParityScheme::Rs),
                         [](const auto& info) {
                           return info.param == ParityScheme::Raid5 ? "Raid5"
                                                                    : "Rs";
                         });

}  // namespace
}  // namespace vdc::core
