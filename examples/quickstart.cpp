// Quickstart: the DVDC public API in ~80 lines.
//
// Builds the paper's Figure 4 cluster (4 physical nodes, 3 VMs each),
// takes one distributed diskless checkpoint, kills a node, and recovers
// the lost VMs byte-exactly from their RAID groups' parity.
//
//   $ ./quickstart

#include <cstdio>

#include "common/log.hpp"
#include "core/recovery.hpp"
#include "core/runtime.hpp"

using namespace vdc;

int main() {
  Logger::instance().set_level(LogLevel::Info);

  // 1. A simulated cluster: 4 nodes, 10 Gbit NICs, one hypervisor each.
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(/*seed=*/42));
  for (int n = 0; n < 4; ++n) cluster.add_node();

  // 2. Boot 3 guests per node. Each runs a hot/cold write workload over a
  //    page-granular memory image (real bytes: parity is computed on them).
  core::ClusterConfig guest;
  guest.page_size = kib(4);
  guest.pages_per_vm = 256;  // 1 MiB per VM
  guest.write_rate = 500.0;
  auto workloads = core::make_workload_factory(guest);
  for (int n = 0; n < 4; ++n)
    for (int v = 0; v < 3; ++v)
      cluster.boot_vm(n, guest.page_size, guest.pages_per_vm, workloads(0));

  // 3. Plan orthogonal RAID groups (no two members on one node) and pin a
  //    parity holder per group, rotated across the cluster.
  core::DvdcState state;
  core::DvdcCoordinator coordinator(sim, cluster, state);
  auto plan = core::PlacedPlan::make(core::GroupPlanner().plan(cluster),
                                     cluster, core::ParityScheme::Raid5);
  std::printf("planned %zu RAID groups over %zu VMs\n",
              plan.plan.groups.size(), cluster.all_vms().size());

  // 4. Take a coordinated diskless checkpoint (epoch 1).
  coordinator.run_epoch(plan, 1, [&](const core::EpochStats& stats) {
    std::printf("epoch %llu committed: overhead %.1f ms, latency %.1f ms, "
                "%.1f KiB shipped\n",
                static_cast<unsigned long long>(stats.epoch),
                stats.overhead * 1e3, stats.latency * 1e3,
                stats.bytes_shipped / 1024.0);
  });
  sim.run();

  // 5. Let the guests compute (and dirty memory) for a while.
  cluster.advance_workloads(seconds(30));

  // 6. Disaster: node 2 dies, taking its 3 VMs and their memory with it.
  const auto lost = cluster.node(2).hypervisor().vm_ids();
  cluster.kill_node(2);
  state.drop_node(2);
  std::printf("node 2 failed, lost %zu VMs\n", lost.size());

  // 7. Recover: surviving group members + parity holders stream their
  //    blocks to replacement nodes, XOR rebuilds the lost images, and the
  //    whole cluster rolls back to the committed cut and resumes.
  core::RecoveryManager recovery(sim, cluster, state, workloads);
  recovery.recover(plan, lost, [&](const core::RecoveryStats& stats) {
    std::printf("recovery %s: %zu VMs rebuilt in %.2f s (%.1f MiB moved)\n",
                stats.success ? "succeeded" : "FAILED",
                stats.vms_recovered, stats.duration,
                stats.bytes_transferred / (1024.0 * 1024.0));
  });
  sim.run();

  // 8. The recovered VMs are byte-identical to their checkpoints.
  for (vm::VmId id : lost) {
    const auto node = cluster.locate(id);
    std::printf("  vm%u now on node %u (%s)\n", id, *node,
                cluster::vm_address(id).c_str());
  }
  return 0;
}
