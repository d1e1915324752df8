// Migration study: the live-migration machinery DVDC builds on
// (Section II-A / IV-C), on its own.
//
//   1. Pre-copy live migration under increasing guest write rates —
//      downtime stays in milliseconds until the dirty rate outruns the
//      link (Clark et al.'s writable-working-set story).
//   2. A Remus-style replicator protecting a VM at 40 checkpoints/sec,
//      then a failover: how much speculation is lost.
//
//   $ ./migration_study

#include <cstdio>

#include "migration/precopy.hpp"
#include "migration/remus.hpp"

using namespace vdc;
using namespace vdc::migration;

int main() {
  std::printf("--- pre-copy live migration, 16 MiB guest, 100 MiB/s link\n");
  std::printf("%12s %8s %12s %12s %12s %6s\n", "writes/s", "rounds",
              "downtime", "total", "sent", "conv");
  for (double rate : {0.0, 100.0, 1000.0, 5000.0, 20000.0}) {
    simkit::Simulator sim;
    net::Fabric fabric(sim, 50e-6);
    const auto src_host = fabric.add_host(mib_per_s(100));
    const auto dst_host = fabric.add_host(mib_per_s(100));
    vm::Hypervisor src(Rng(1)), dst(Rng(2));
    std::unique_ptr<vm::Workload> w;
    if (rate <= 0)
      w = std::make_unique<vm::IdleWorkload>();
    else
      w = std::make_unique<vm::UniformWorkload>(rate);
    src.create_vm(1, "guest", kib(4), 4096, std::move(w));  // 16 MiB

    PreCopyMigrator migrator(sim, fabric);
    MigrationStats stats;
    migrator.migrate(1, src, src_host, dst, dst_host,
                     [&](const MigrationStats& s) { stats = s; });
    sim.run();
    std::printf("%12.0f %8u %10.1fms %10.2fs %10.1fMB %6s\n", rate,
                stats.rounds, stats.downtime * 1e3, stats.total_time,
                stats.bytes_sent / 1e6, stats.converged ? "yes" : "no");
  }

  std::printf("\n--- Remus-style replication, 40 epochs/s, failover after "
              "10 s\n");
  simkit::Simulator sim;
  net::Fabric fabric(sim, 50e-6);
  const auto primary_host = fabric.add_host(mib_per_s(100));
  const auto backup_host = fabric.add_host(mib_per_s(100));
  vm::Hypervisor primary(Rng(3));
  primary.create_vm(1, "protected", kib(4), 1024,
                    std::make_unique<vm::HotColdWorkload>(2000.0, 0.1, 0.9));

  RemusReplicator remus(sim, fabric, primary, primary_host, backup_host, 1);
  remus.start();
  sim.run_until(10.0);
  const auto& stats = remus.stats();
  std::printf("epochs committed : %llu (%.1f/s)\n",
              static_cast<unsigned long long>(stats.epochs_committed),
              stats.epochs_committed / 10.0);
  std::printf("guest pause time : %.1f ms total (%.2f%% of wall time)\n",
              stats.total_pause_time * 1e3, stats.total_pause_time * 10.0);
  std::printf("bytes shipped    : %.1f MB (XOR+RLE compressed deltas)\n",
              stats.bytes_shipped / 1e6);

  const auto failover = remus.failover();
  std::printf("failover         : lost %.1f ms of speculative execution; "
              "backup image %.1f MiB ready immediately\n",
              failover.lost_work * 1e3,
              failover.image.size() / (1024.0 * 1024.0));
  std::printf("\nDVDC uses this same machinery (incremental capture, "
              "compressed deltas) but replaces the per-VM standby with "
              "distributed parity.\n");
  return 0;
}
