// ABL-N1 — Section VI: "the authors suggest that Remus can run in an
// N-to-1 fashion for active and backup hosts [...] Virtual diskless
// checkpointing has no such restriction and can accommodate clusters of
// varying sizes."
//
// We protect N active hosts' VMs with ONE Remus backup host and watch the
// backup's NIC become the fan-in bottleneck: committed epoch rate drops
// and the recovery point (staleness) grows with N. DVDC at the same scale
// spreads exactly the same protection traffic across all nodes, so its
// epoch latency stays flat.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/runtime.hpp"
#include "migration/remus.hpp"

using namespace vdc;

namespace {

struct RemusProbe {
  double epochs_per_sec = 0;
  SimTime worst_staleness = 0;
  Bytes backup_bytes = 0;
};

RemusProbe run_remus(int n_primaries) {
  simkit::Simulator sim;
  net::Fabric fabric(sim, 50e-6);
  std::vector<net::HostId> hosts;
  std::vector<std::unique_ptr<vm::Hypervisor>> hypervisors;
  for (int i = 0; i < n_primaries; ++i) {
    hosts.push_back(fabric.add_host(mib_per_s(100)));
    hypervisors.push_back(std::make_unique<vm::Hypervisor>(Rng(100 + i)));
  }
  const auto backup = fabric.add_host(mib_per_s(100));

  // 40 epochs/s (migration::kRemusEpoch).
  migration::RemusConfig config;
  config.compress = false;  // classic Remus ships raw dirty pages
  std::vector<std::unique_ptr<migration::RemusReplicator>> replicators;
  for (int i = 0; i < n_primaries; ++i) {
    hypervisors[i]->create_vm(
        static_cast<vm::VmId>(i + 1), "vm", kib(4), 1024,
        std::make_unique<vm::UniformWorkload>(4000.0));
    replicators.push_back(std::make_unique<migration::RemusReplicator>(
        sim, fabric, *hypervisors[i], hosts[i], backup,
        static_cast<vm::VmId>(i + 1), config));
    replicators.back()->start();
  }
  sim.run_until(10.0);

  RemusProbe probe;
  std::uint64_t committed = 0;
  for (auto& r : replicators) {
    committed += r->stats().epochs_committed;
    probe.backup_bytes += r->stats().bytes_shipped;
    probe.worst_staleness = std::max(probe.worst_staleness, r->staleness());
    r->stop();
  }
  probe.epochs_per_sec =
      static_cast<double>(committed) / (10.0 * n_primaries);
  return probe;
}

SimTime dvdc_epoch_latency(int nodes) {
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(7));
  core::ClusterConfig cc;
  cc.page_size = kib(4);
  cc.pages_per_vm = 1024;
  cc.write_rate = 4000.0;
  cc.node_spec.nic_rate = mib_per_s(100);
  auto workloads = core::make_workload_factory(cc);
  for (int n = 0; n < nodes; ++n) cluster.add_node(cc.node_spec);
  for (int n = 0; n < nodes; ++n)
    cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));
  core::DvdcState state;
  core::DvdcCoordinator coord(sim, cluster, state);
  core::PlannerConfig planner;
  planner.group_size = std::min(3, nodes - 1);
  auto placed = core::PlacedPlan::make(
      core::GroupPlanner(planner).plan(cluster), cluster);
  // Steady state: second (incremental) epoch after some dirtying.
  coord.run_epoch(placed, 1, [](const core::EpochStats&) {});
  sim.run();
  cluster.advance_workloads(1.0);
  SimTime latency = 0;
  coord.run_epoch(placed, 2,
                  [&](const core::EpochStats& s) { latency = s.latency; });
  sim.run();
  return latency;
}

}  // namespace

int main() {
  bench::banner(
      "ABL-N1  Remus N-to-1 backup fan-in vs. DVDC's flat exchange",
      "4 MiB guests dirtying hard, raw dirty pages; 100 MiB/s NICs; 10 s");
  std::printf("%4s  %18s %14s %12s  %16s\n", "N", "Remus epochs/s/VM",
              "staleness", "backup RX", "DVDC epoch lat");
  for (int n : {1, 2, 4, 8, 12}) {
    const RemusProbe remus = run_remus(n);
    const SimTime dvdc = dvdc_epoch_latency(std::max(n, 2) + 1);
    std::printf("%4d  %18.1f %14s %12s  %16s\n", n, remus.epochs_per_sec,
                bench::fmt_time(remus.worst_staleness).c_str(),
                bench::fmt_bytes(static_cast<double>(remus.backup_bytes))
                    .c_str(),
                bench::fmt_time(dvdc).c_str());
  }
  std::printf("\nOne backup host serializes N replication streams: the\n"
              "checkpoint rate collapses and the recovery point ages as N\n"
              "grows. DVDC has no distinguished backup — its exchange cost\n"
              "stays flat at any cluster size (the Section VI contrast).\n");
  return 0;
}
