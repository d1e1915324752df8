// ABL-RS — generalising the paper's parity scheme: XOR (m=1) and
// Reed-Solomon at m = 1..3 (m = 2 is the double-erasure role the paper
// gives RDP). For each scheme we measure one full exchange epoch, one
// incremental epoch, and the survivable simultaneous node failures — the
// cost ladder a deployer climbs for more fault tolerance. A kill counts as
// survived only when every rebuilt VM's image equals its committed
// checkpoint; exits 1 when a row's count departs from EXPERIMENTS.md's
// (1, 1, 2, 3).

#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "core/recovery.hpp"
#include "core/runtime.hpp"

using namespace vdc;
using namespace vdc::core;

namespace {

struct Probe {
  Bytes full_wire = 0;
  Bytes incr_wire = 0;
  SimTime epoch_latency = 0;
  Bytes parity_mem = 0;
  std::size_t survived = 0;  // max simultaneous node failures recovered
};

Probe run(ParityScheme scheme, std::size_t m) {
  constexpr std::uint32_t kNodes = 9, kVms = 1, kGroup = 4;
  Probe probe;

  // Part 1: epoch costs.
  {
    simkit::Simulator sim;
    cluster::ClusterManager cluster(sim, Rng(555));
    ClusterConfig cc;
    cc.page_size = kib(4);
    cc.pages_per_vm = 64;
    cc.write_rate = 200.0;
    auto workloads = make_workload_factory(cc);
    for (std::uint32_t n = 0; n < kNodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < kNodes; ++n)
      for (std::uint32_t v = 0; v < kVms; ++v)
        cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));

    DvdcState state;
    ProtocolConfig pc;
    pc.scheme = scheme;
    pc.rs_parity = m;
    DvdcCoordinator coord(sim, cluster, state, pc);
    PlannerConfig planner;
    planner.group_size = kGroup;
    auto placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster),
                                   cluster, scheme, m);
    EpochStats s1, s2;
    coord.run_epoch(placed, 1, [&](const EpochStats& s) { s1 = s; });
    sim.run();
    cluster.advance_workloads(1.0);
    coord.run_epoch(placed, 2, [&](const EpochStats& s) { s2 = s; });
    sim.run();
    probe.full_wire = s1.bytes_shipped;
    probe.incr_wire = s2.bytes_shipped;
    probe.epoch_latency = s2.latency;
    for (const auto& group : placed.plan.groups) {
      const auto* record = state.parity(group.id);
      for (const auto& b : record->blocks) probe.parity_mem += b.size();
    }
  }

  // Part 2: survivable simultaneous member-node failures (empirical).
  for (std::size_t kill = 1; kill <= m + 1; ++kill) {
    simkit::Simulator sim;
    cluster::ClusterManager cluster(sim, Rng(777));
    ClusterConfig cc;
    cc.page_size = kib(4);
    cc.pages_per_vm = 16;
    cc.write_rate = 0.0;
    auto workloads = make_workload_factory(cc);
    for (std::uint32_t n = 0; n < kNodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < kNodes; ++n)
      cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));
    DvdcState state;
    ProtocolConfig pc;
    pc.scheme = scheme;
    pc.rs_parity = m;
    DvdcCoordinator coord(sim, cluster, state, pc);
    RecoveryManager recovery(sim, cluster, state, workloads);
    PlannerConfig planner;
    planner.group_size = kGroup;
    auto placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster),
                                   cluster, scheme, m);
    coord.run_epoch(placed, 1, [](const EpochStats&) {});
    sim.run();
    std::map<vm::VmId, std::vector<std::byte>> committed;
    for (vm::VmId vmid : cluster.all_vms())
      committed[vmid] =
          state.node_store(*cluster.locate(vmid)).find(vmid, 1)->payload();

    // Kill `kill` member nodes of group 0 simultaneously.
    const auto& group = placed.plan.groups[0];
    if (kill > group.members.size()) break;
    std::vector<vm::VmId> lost;
    for (std::size_t i = 0; i < kill; ++i) {
      const auto node = *cluster.locate(group.members[i]);
      const auto vms = cluster.node(node).hypervisor().vm_ids();
      lost.insert(lost.end(), vms.begin(), vms.end());
      cluster.kill_node(node);
      state.drop_node(node);
    }
    bool ok = false;
    recovery.recover(placed, lost,
                     [&](const RecoveryStats& s) { ok = s.success; });
    sim.run();
    for (vm::VmId vmid : lost)
      ok = ok && cluster.locate(vmid).has_value() &&
           cluster.machine(vmid).image().flatten() == committed.at(vmid);
    if (ok)
      probe.survived = kill;
    else
      break;
  }
  return probe;
}

}  // namespace

int main() {
  bench::banner("ABL-RS  the fault-tolerance cost ladder",
                "9 nodes x 1 VM (256 KiB), groups of 4; epoch 2 is "
                "incremental");
  std::printf("%-12s %10s %10s %12s %10s %9s\n", "scheme", "full wire",
              "incr wire", "epoch lat", "parity", "survives");

  struct Row {
    const char* name;
    ParityScheme scheme;
    std::size_t m;
    std::size_t survives;  // EXPERIMENTS.md's count
  } rows[] = {
      {"XOR (m=1)", ParityScheme::Raid5, 1, 1},
      {"RS m=1", ParityScheme::Rs, 1, 1},
      {"RS m=2", ParityScheme::Rs, 2, 2},
      {"RS m=3", ParityScheme::Rs, 3, 3},
  };
  int status = 0;
  for (const auto& row : rows) {
    const Probe probe = run(row.scheme, row.m);
    if (probe.survived != row.survives) {
      std::fprintf(stderr, "rs_sweep: %s survived %zu failures, not %zu\n",
                   row.name, probe.survived, row.survives);
      status = 1;
    }
    std::printf("%-12s %10s %10s %12s %10s %8zu\n", row.name,
                bench::fmt_bytes(static_cast<double>(probe.full_wire))
                    .c_str(),
                bench::fmt_bytes(static_cast<double>(probe.incr_wire))
                    .c_str(),
                bench::fmt_time(probe.epoch_latency).c_str(),
                bench::fmt_bytes(static_cast<double>(probe.parity_mem))
                    .c_str(),
                probe.survived);
  }
  std::printf("\nIncremental epochs ship only deltas at every m. Wire "
              "and memory grow ~linearly with m — fault tolerance is paid "
              "for exactly once per extra failure survived.\n");
  return status;
}
