// ABL-RACK — correlated failures beyond a single node.
//
// The paper's orthogonality argument ("gridding RAID groups of disks
// across different controllers", Section IV-B) generalises from nodes to
// racks: if a whole rack can fail at once (switch, PDU), members of a
// RAID group must sit in pairwise distinct racks or a single rack event
// becomes a multi-erasure. We kill each rack in turn and report survival
// under three plans on the same 4-rack x 2-node x 1-VM cluster:
//
//   rack-oblivious RAID-5   — groups may straddle a rack: data loss
//   rack-aware RAID-5       — <= 1 member (and no parity) per rack: safe
//   rack-oblivious RS m=2   — pays 2x parity to survive double erasures

#include <cstdio>
#include <map>

#include "bench_util.hpp"
#include "core/recovery.hpp"
#include "core/runtime.hpp"

using namespace vdc;
using namespace vdc::core;

namespace {

struct Outcome {
  int racks_survived = 0;
  int racks_total = 0;
  SimTime worst_recovery = 0.0;
};

Outcome run(bool rack_aware, ParityScheme scheme) {
  constexpr std::uint32_t kRacks = 4, kPerRack = 2;
  Outcome outcome;
  outcome.racks_total = kRacks;

  for (std::uint32_t doomed = 0; doomed < kRacks; ++doomed) {
    simkit::Simulator sim;
    cluster::ClusterManager cluster(sim, Rng(100 + doomed));
    for (std::uint32_t r = 0; r < kRacks; ++r)
      for (std::uint32_t i = 0; i < kPerRack; ++i) {
        cluster::NodeSpec spec;
        spec.rack = r;
        cluster.add_node(spec);
      }
    ClusterConfig cc;
    cc.page_size = kib(4);
    cc.pages_per_vm = 32;
    cc.write_rate = 0.0;
    auto workloads = make_workload_factory(cc);
    for (cluster::NodeId n = 0; n < kRacks * kPerRack; ++n)
      cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));

    DvdcState state;
    ProtocolConfig pc;
    pc.scheme = scheme;
    DvdcCoordinator coord(sim, cluster, state, pc);
    RecoveryManager recovery(sim, cluster, state, workloads);
    PlannerConfig planner;
    planner.group_size = 3;
    planner.rack_aware = rack_aware;
    auto placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster),
                                   cluster, scheme);
    coord.run_epoch(placed, 1, [](const EpochStats&) {});
    sim.run();

    const auto lost = cluster.kill_rack(doomed);
    for (cluster::NodeId nid = 0; nid < kRacks * kPerRack; ++nid)
      if (!cluster.node(nid).alive()) state.drop_node(nid);
    bool ok = false;
    SimTime duration = 0.0;
    recovery.recover(placed, lost, [&](const RecoveryStats& s) {
      ok = s.success;
      duration = s.duration;
    });
    sim.run();
    if (ok) {
      ++outcome.racks_survived;
      outcome.worst_recovery = std::max(outcome.worst_recovery, duration);
    }
  }
  return outcome;
}

SimTime epoch_latency(bool rack_aware, Rate uplink) {
  constexpr std::uint32_t kRacks = 4, kPerRack = 2;
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(42));
  for (std::uint32_t r = 0; r < kRacks; ++r) {
    cluster.fabric().set_rack_uplink(r, uplink);
    for (std::uint32_t i = 0; i < kPerRack; ++i) {
      cluster::NodeSpec spec;
      spec.rack = r;
      spec.nic_rate = mib_per_s(100);
      cluster.add_node(spec);
    }
  }
  ClusterConfig cc;
  cc.page_size = kib(4);
  cc.pages_per_vm = 256;  // 1 MiB
  cc.write_rate = 0.0;
  auto workloads = make_workload_factory(cc);
  for (cluster::NodeId n = 0; n < kRacks * kPerRack; ++n)
    cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));
  DvdcState state;
  ProtocolConfig pc;
  pc.base_overhead = 0.0;
  pc.commit_latency = 0.0;
  DvdcCoordinator coord(sim, cluster, state, pc);
  PlannerConfig planner;
  planner.group_size = 3;
  planner.rack_aware = rack_aware;
  auto placed = PlacedPlan::make(GroupPlanner(planner).plan(cluster),
                                 cluster, ParityScheme::Raid5);
  SimTime latency = 0;
  coord.run_epoch(placed, 1,
                  [&](const EpochStats& s) { latency = s.latency; });
  sim.run();
  return latency;
}

}  // namespace

int main() {
  bench::banner("ABL-RACK  whole-rack correlated failures",
                "4 racks x 2 nodes x 1 VM; every rack killed in turn");
  std::printf("%-26s %12s %16s\n", "plan", "survived", "worst recovery");

  struct Row {
    const char* name;
    bool rack_aware;
    ParityScheme scheme;
  } rows[] = {
      {"rack-oblivious RAID-5", false, ParityScheme::Raid5},
      {"rack-aware RAID-5", true, ParityScheme::Raid5},
      {"rack-oblivious RS m=2", false, ParityScheme::Rs},
  };
  for (const auto& row : rows) {
    const Outcome o = run(row.rack_aware, row.scheme);
    std::printf("%-26s %8d / %d %16s\n", row.name, o.racks_survived,
                o.racks_total,
                o.racks_survived > 0 ? bench::fmt_time(o.worst_recovery)
                                           .c_str()
                                     : "-");
  }
  std::printf("\nRack-aware placement makes every rack event a single\n"
              "erasure per stripe — the same orthogonality trick the paper\n"
              "plays at node level, one fault-domain level up. RS m=2 buys\n"
              "the same survival with parity instead of placement.\n");

  std::printf("\nthe price: rack-aware exchange crosses the oversubscribed "
              "core\n");
  std::printf("%14s %16s %16s\n", "core uplink", "oblivious epoch",
              "rack-aware epoch");
  for (Rate uplink : {mib_per_s(400), mib_per_s(100), mib_per_s(25)}) {
    std::printf("%14s %16s %16s\n", bench::fmt_rate(uplink).c_str(),
                bench::fmt_time(epoch_latency(false, uplink)).c_str(),
                bench::fmt_time(epoch_latency(true, uplink)).c_str());
  }
  std::printf("\nFault-domain safety is bought with core bandwidth: the\n"
              "rack-aware exchange slows as the core oversubscribes, while\n"
              "the oblivious plan keeps most traffic rack-local.\n");
  return 0;
}
