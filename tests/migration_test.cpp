// Tests for live migration (pre-copy, stop-and-copy) and the Remus-style
// replicator.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "migration/precopy.hpp"
#include "migration/remus.hpp"

namespace vdc::migration {
namespace {

struct MigrationRig {
  simkit::Simulator sim;
  net::Fabric fabric{sim, 0.0};
  net::HostId host_a, host_b;
  vm::Hypervisor hv_a{Rng(1)}, hv_b{Rng(2)};

  MigrationRig(Rate nic = mib_per_s(100)) {
    host_a = fabric.add_host(nic);
    host_b = fabric.add_host(nic);
  }

  vm::VirtualMachine& boot(double write_rate, std::size_t pages = 64) {
    std::unique_ptr<vm::Workload> w;
    if (write_rate <= 0)
      w = std::make_unique<vm::IdleWorkload>();
    else
      w = std::make_unique<vm::UniformWorkload>(write_rate);
    return hv_a.create_vm(1, "vm1", kib(4), pages, std::move(w));
  }
};

TEST(PreCopy, IdleGuestMigratesInOneRoundPlusResidue) {
  MigrationRig rig;
  rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->converged);
  EXPECT_EQ(stats->rounds, 1u);  // round 0 only; no dirtying
  EXPECT_EQ(stats->bytes_sent, kib(4) * 64);
  EXPECT_TRUE(rig.hv_b.hosts(1));
  EXPECT_FALSE(rig.hv_a.hosts(1));
  EXPECT_EQ(rig.hv_b.get(1).state(), vm::VmState::Running);
}

TEST(PreCopy, ContentSurvivesMigration) {
  MigrationRig rig;
  auto& machine = rig.boot(0.0);
  const auto content = machine.image().flatten();
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [](const MigrationStats&) {});
  rig.sim.run();
  EXPECT_EQ(rig.hv_b.get(1).image().flatten(), content);
}

TEST(PreCopy, DirtyGuestNeedsMoreRoundsButLowDowntime) {
  MigrationRig rig(mib_per_s(1));  // slow link: rounds take long enough
  rig.boot(/*write_rate=*/200.0, /*pages=*/256);  // dirties during rounds
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->rounds, 2u);
  EXPECT_GT(stats->bytes_sent, kib(4) * 256);  // retransmitted dirty pages
  // Downtime is a small fraction of total time.
  EXPECT_LT(stats->downtime, stats->total_time / 2);
}

TEST(PreCopy, RoundCapForcesStopAndCopy) {
  // A sequential writer dirties 0.9 pages per page shipped: every round
  // shrinks the dirty set by 10% (no plateau), yet after kPreCopyMaxRounds
  // rounds ~0.9^7 of 1,024 pages are still dirty, far above the
  // convergence threshold. The round cap alone ends pre-copy.
  MigrationRig rig(mib_per_s(1));  // 4 KiB page = 1/256 s on the wire
  rig.hv_a.create_vm(1, "vm1", kib(4), 1024,
                     std::make_unique<vm::SequentialWorkload>(0.9 * 256));
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->rounds, kPreCopyMaxRounds);
  EXPECT_FALSE(stats->converged);
  EXPECT_EQ(stats->dirty_log_fallbacks, 0u);
  EXPECT_TRUE(rig.hv_b.hosts(1));
  EXPECT_EQ(rig.hv_b.get(1).state(), vm::VmState::Running);
}

TEST(PreCopy, DowntimeBeatsStopAndCopy) {
  // The headline claim of live migration: pre-copy downtime is a tiny
  // fraction of a full stop-and-copy transfer.
  MigrationRig rig1;
  rig1.boot(50.0, 512);
  PreCopyMigrator precopy(rig1.sim, rig1.fabric);
  std::optional<MigrationStats> pre;
  precopy.migrate(1, rig1.hv_a, rig1.host_a, rig1.hv_b, rig1.host_b,
                  [&](const MigrationStats& s) { pre = s; });
  rig1.sim.run();

  MigrationRig rig2;
  rig2.boot(50.0, 512);
  StopAndCopyMigrator snc(rig2.sim, rig2.fabric);
  std::optional<MigrationStats> stop;
  snc.migrate(1, rig2.hv_a, rig2.host_a, rig2.hv_b, rig2.host_b,
              [&](const MigrationStats& s) { stop = s; });
  rig2.sim.run();

  ASSERT_TRUE(pre && stop);
  EXPECT_LT(pre->downtime, stop->downtime / 5);
}

TEST(PreCopy, BusyRejectsSecondMigration) {
  MigrationRig rig;
  rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [](const MigrationStats&) {});
  EXPECT_TRUE(migrator.busy());
  EXPECT_THROW(migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b,
                                rig.host_b, [](const MigrationStats&) {}),
               ConfigError);
  rig.sim.run();
  EXPECT_FALSE(migrator.busy());
}

TEST(PreCopy, ForeignDirtyLogClearForcesFullResend) {
  // A checkpoint epoch consumes the shared dirty log mid-round (the
  // coordinator clears it after capture). Pre-fix, the migrator trusted
  // the post-clear log and shipped only the post-clear residue, silently
  // losing the pages dirtied before the clear. It must detect the foreign
  // clear via the dirty generation and fall back to a full-image round.
  MigrationRig rig(mib_per_s(1));  // 256 KiB image -> 0.25 s round 0
  auto& machine = rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  // Emulate the epoch boundary in the middle of round 0.
  rig.sim.at(0.1, [&] { machine.image().clear_dirty(); });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->dirty_log_fallbacks, 1u);
  // Round 0 (full) + fallback full round; an idle guest would otherwise
  // send exactly one image.
  EXPECT_GE(stats->bytes_sent, 2 * kib(4) * 64);
  EXPECT_TRUE(rig.hv_b.hosts(1));
  EXPECT_EQ(rig.hv_b.get(1).state(), vm::VmState::Running);
}

TEST(PreCopy, InterleavedEpochClearsStillConverge) {
  // Repeated checkpoint epochs during a long migration: every round that
  // lost its log re-ships the full image, and the migration still lands.
  MigrationRig rig(mib_per_s(1));
  auto& machine = rig.boot(/*write_rate=*/200.0, /*pages=*/128);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  for (double t = 0.2; t < 1.5; t += 0.3)
    rig.sim.at(t, [&] {
      if (rig.hv_a.hosts(1)) machine.image().clear_dirty();
    });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GE(stats->dirty_log_fallbacks, 1u);
  EXPECT_TRUE(rig.hv_b.hosts(1));
  EXPECT_EQ(rig.hv_b.get(1).state(), vm::VmState::Running);
}

TEST(PreCopy, CancelMidRoundResetsBusyAndAllowsRetry) {
  MigrationRig rig(mib_per_s(1));
  rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  bool completed = false;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats&) { completed = true; });
  rig.sim.at(0.1, [&] {
    migrator.cancel();  // e.g. the placement decision was revoked
    EXPECT_FALSE(migrator.busy());
  });
  rig.sim.run();
  EXPECT_FALSE(completed);
  EXPECT_TRUE(rig.hv_a.hosts(1));  // guest stayed home, still running
  EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Running);
  // The migrator is reusable after the abort.
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(rig.hv_b.hosts(1));
}

TEST(PreCopy, CancelDuringSwitchOverResumesPausedGuest) {
  MigrationRig rig(mib_per_s(1));
  rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  bool completed = false;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats&) { completed = true; });
  // Round 0 ends at 0.25 s, the guest pauses for stop-and-copy (an idle
  // guest has no residue), and the switch-over timer runs for
  // kSwitchOverhead. Cancel inside that window.
  rig.sim.at(0.25 + kSwitchOverhead / 2, [&] {
    EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Paused);
    migrator.cancel();
    EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Running);
  });
  rig.sim.run();
  EXPECT_FALSE(completed);
  EXPECT_FALSE(migrator.busy());
  EXPECT_TRUE(rig.hv_a.hosts(1));
}

TEST(PreCopy, CancelAfterSourceFailureLeavesFailedGuestAlone) {
  MigrationRig rig(mib_per_s(1));
  auto& machine = rig.boot(0.0);
  PreCopyMigrator migrator(rig.sim, rig.fabric);
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [](const MigrationStats&) {});
  rig.sim.at(0.1, [&] {
    machine.mark_failed();  // source node died mid-migration
    migrator.cancel();
  });
  EXPECT_NO_THROW(rig.sim.run());
  EXPECT_FALSE(migrator.busy());
  EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Failed);
  EXPECT_FALSE(rig.hv_b.hosts(1));
}

TEST(StopAndCopy, DowntimeIsWholeTransfer) {
  MigrationRig rig;
  rig.boot(0.0, 100);
  StopAndCopyMigrator migrator(rig.sim, rig.fabric);
  std::optional<MigrationStats> stats;
  migrator.migrate(1, rig.hv_a, rig.host_a, rig.hv_b, rig.host_b,
                   [&](const MigrationStats& s) { stats = s; });
  rig.sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_DOUBLE_EQ(stats->downtime, stats->total_time);
  EXPECT_NEAR(stats->total_time,
              static_cast<double>(kib(4) * 100) / mib_per_s(100) +
                  kSwitchOverhead,
              1e-6);
}

TEST(Remus, CommitsFortyEpochsPerSecond) {
  MigrationRig rig;
  rig.boot(10.0, 64);
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  rig.sim.run_until(1.0);
  remus.stop();
  // ~40 epochs in a second (minus pipeline latency slack).
  EXPECT_GE(remus.stats().epochs_committed, 30u);
  EXPECT_LE(remus.stats().epochs_committed, 41u);
  EXPECT_GT(remus.stats().bytes_shipped, 0u);
}

TEST(Remus, SlowShipPacesEpochsByTheAck) {
  // Shipping an epoch takes longer than kRemusEpoch: the next capture
  // waits for the ack and then starts at once, so epochs never overlap
  // and the rate falls to what the link carries.
  MigrationRig rig(mib_per_s(1));  // the first full image takes 0.25 s
  rig.boot(/*write_rate=*/2000.0);
  RemusConfig config;
  config.compress = false;
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1, config);
  remus.start();
  // From the first capture on, exactly one epoch is always in flight:
  // each ack starts the next capture at once.
  for (int i = 3; i <= 100; ++i)
    rig.sim.at(0.01 * i, [&] {
      EXPECT_EQ(remus.stats().epochs_captured,
                remus.stats().epochs_committed + 1)
          << "t = " << rig.sim.now();
    });
  rig.sim.run_until(1.0);
  remus.stop();
  EXPECT_GE(remus.stats().epochs_committed, 2u);
  EXPECT_LT(remus.stats().epochs_committed, 20u);
  EXPECT_EQ(remus.stats().epochs_skipped, 0u);
}

TEST(Remus, FailoverLosesOnlyUnackedWindow) {
  MigrationRig rig;
  rig.boot(10.0, 64);
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  rig.sim.run_until(1.0);
  auto failover = remus.failover();
  // Lost work is bounded by ~2 epochs (one in flight + one accumulating).
  EXPECT_LT(failover.lost_work, 3 * kRemusEpoch);
  EXPECT_FALSE(failover.image.empty());
}

TEST(Remus, BackupImageMatchesAnAckedState) {
  MigrationRig rig;
  auto& machine = rig.boot(0.0, 32);  // idle: every epoch identical
  const auto content = machine.image().flatten();
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  rig.sim.run_until(0.5);
  auto failover = remus.failover();
  EXPECT_EQ(failover.image, content);
}

TEST(Remus, StopDuringStagingPauseResumesGuestAndCancelsCapture) {
  // Pre-fix, stop() cancelled only the epoch timer: the deferred
  // staging-pause event survived, charged its full pause window to
  // total_pause_time, resumed a guest the replicator no longer managed
  // and launched the ship anyway.
  MigrationRig rig(mib_per_s(1));
  rig.boot(0.0);  // 256 KiB image
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  // The first capture freezes the guest at kRemusEpoch for
  // kRemusPauseOverhead plus the 256 KiB staging copy (~224 us).
  rig.sim.at(kRemusEpoch + kRemusPauseOverhead / 2, [&] {
    // We are mid-pause.
    EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Paused);
    remus.stop();
    EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Running);
  });
  rig.sim.run();
  EXPECT_EQ(remus.stats().epochs_committed, 0u);
  EXPECT_DOUBLE_EQ(remus.stats().total_pause_time, 0.0);
  EXPECT_EQ(remus.stats().bytes_shipped, 0u);
  EXPECT_DOUBLE_EQ(
      rig.sim.telemetry().metrics().value("net.active_flows"), 0.0);
}

TEST(Remus, FailoverDuringStagingPauseNeverTouchesDeadGuest) {
  // Pre-fix, the surviving pause event called primary_.get(vm_).resume()
  // on the dead primary's guest — resuming a machine the failover had
  // just promoted away from (an InvariantError once the VM is Failed).
  MigrationRig rig(mib_per_s(1));
  auto& machine = rig.boot(0.0);
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  rig.sim.at(kRemusEpoch + kRemusPauseOverhead / 2, [&] {
    EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Paused);
    machine.mark_failed();  // the primary node just died
    const auto failover = remus.failover();
    EXPECT_GT(failover.lost_work, 0.0);
  });
  EXPECT_NO_THROW(rig.sim.run());
  EXPECT_EQ(rig.hv_a.get(1).state(), vm::VmState::Failed);
  EXPECT_DOUBLE_EQ(remus.stats().total_pause_time, 0.0);
}

TEST(Remus, StopMidShipCancelsFlowAndCommitsNothing) {
  MigrationRig rig(mib_per_s(1));  // slow link: ship takes ~0.25 s
  rig.boot(0.0);
  RemusConfig config;
  config.compress = false;  // deterministic wire size
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1, config);
  remus.start();
  rig.sim.at(0.1, [&] { remus.stop(); });  // epoch 1's ship is in flight
  rig.sim.run();
  EXPECT_EQ(remus.stats().epochs_captured, 1u);
  EXPECT_EQ(remus.stats().epochs_committed, 0u);
  // The cancelled ship no longer occupies the fabric.
  EXPECT_DOUBLE_EQ(
      rig.sim.telemetry().metrics().value("net.active_flows"), 0.0);
}

TEST(Remus, FailoverMidShipReturnsLastAckedImage) {
  // Epoch 1 commits; failover strikes while epoch 2 is on the wire. The
  // promoted image must be exactly the epoch-1 state — pre-fix, the
  // uncancelled ship completion overwrote backup_image_ afterwards.
  MigrationRig rig(mib_per_s(1));
  auto& machine = rig.boot(/*write_rate=*/2000.0);
  RemusConfig config;
  config.compress = false;
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1, config);
  remus.start();
  std::vector<std::byte> epoch1;
  // The epoch timer (queued first) fires at the same instant and captures
  // before this snapshot runs; the guest is frozen, so both see the same
  // bytes.
  rig.sim.at(0.025, [&] { epoch1 = machine.image().flatten(); });
  std::optional<RemusReplicator::Failover> failover;
  rig.sim.at(0.35, [&] { failover = remus.failover(); });
  rig.sim.run();
  ASSERT_TRUE(failover.has_value());
  EXPECT_EQ(remus.stats().epochs_committed, 1u);
  EXPECT_EQ(failover->image, epoch1);
  EXPECT_DOUBLE_EQ(
      rig.sim.telemetry().metrics().value("net.active_flows"), 0.0);
}

// Remus keeps its own incremental capture: each epoch ships only the pages
// dirtied since the previous capture and folds them into its base, so the
// standby's image must track every acknowledged capture exactly.
TEST(Remus, BackupTracksEveryAckedCaptureAcrossEpochs) {
  for (const bool compress : {false, true}) {
    MigrationRig rig;
    auto& machine = rig.boot(0.0);  // idle: only the writes below
    auto& image = machine.image();
    const auto scribble = [&](vm::PageIndex page, std::size_t offset) {
      std::vector<std::byte> bytes(16);
      for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = ~image.page(page)[offset + i];
      image.write(page, offset, bytes);
    };
    RemusConfig config;
    config.compress = compress;
    RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                          rig.host_b, 1, config);
    remus.start();
    // Captures land at E, 2E and 3E; each ship is acked well inside the
    // next half epoch.
    constexpr SimTime E = kRemusEpoch;
    std::vector<std::byte> at_first, at_second;
    Bytes first_epoch_shipped = 0;
    rig.sim.at(0.5 * E, [&] { scribble(3, 100); });
    rig.sim.at(E, [&] { at_first = image.flatten(); });
    rig.sim.at(1.5 * E, [&] {
      first_epoch_shipped = remus.stats().bytes_shipped;
      scribble(5, 0);
      scribble(40, 4000);
    });
    rig.sim.at(2 * E, [&] { at_second = image.flatten(); });
    rig.sim.at(2.5 * E, [&] { scribble(9, 7); });
    std::optional<RemusReplicator::Failover> failover;
    rig.sim.at(2.8 * E, [&] { failover = remus.failover(); });
    rig.sim.run();

    const std::string where = compress ? "compressed" : "raw";
    ASSERT_TRUE(failover.has_value()) << where;
    EXPECT_EQ(remus.stats().epochs_committed, 2u) << where;
    EXPECT_NE(at_second, at_first) << where;
    EXPECT_NE(image.flatten(), at_second) << where;
    EXPECT_EQ(failover->image, at_second) << where;
    if (!compress) {
      EXPECT_EQ(first_epoch_shipped, image.size_bytes());
      EXPECT_EQ(remus.stats().bytes_shipped - first_epoch_shipped,
                2 * image.page_size());
    }
  }
}

TEST(Remus, CompressionShipsSmallWritesAsSmallRecords) {
  MigrationRig rig;
  auto& machine = rig.boot(0.0);
  auto& image = machine.image();
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  Bytes first_epoch_shipped = 0;
  rig.sim.at(1.5 * kRemusEpoch, [&] {
    first_epoch_shipped = remus.stats().bytes_shipped;
    std::vector<std::byte> bytes(64);
    for (std::size_t i = 0; i < bytes.size(); ++i)
      bytes[i] = ~image.page(3)[100 + i];  // every byte of x is nonzero
    image.write(3, 100, bytes);
  });
  rig.sim.run_until(2.9 * kRemusEpoch);
  remus.stop();
  ASSERT_EQ(remus.stats().epochs_committed, 2u);
  const Bytes second = remus.stats().bytes_shipped - first_epoch_shipped;
  EXPECT_GT(second, 64u);
  EXPECT_LT(second, image.page_size() / 10);
}

TEST(Remus, OverheadIsSmallFractionForIdleGuest) {
  MigrationRig rig;
  rig.boot(0.0, 64);
  RemusReplicator remus(rig.sim, rig.fabric, rig.hv_a, rig.host_a,
                        rig.host_b, 1);
  remus.start();
  rig.sim.run_until(2.0);
  remus.stop();
  // Pause time should be well under 10% of wall time for an idle guest.
  EXPECT_LT(remus.stats().total_pause_time, 0.2);
}

}  // namespace
}  // namespace vdc::migration
