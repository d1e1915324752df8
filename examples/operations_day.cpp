// A day in the life of a DVDC cluster — the operational pieces working
// together on one timeline:
//
//   t=0        boot 4x3 cluster, plan RAID groups, first checkpoint
//   t=60 s     scrub detects + repairs an injected parity bit-flip
//   t=120 s    node 1 dies; reconstruction + global rollback re-place its
//              guests on the survivors
//   afterwards node 1 is repaired and rejoins empty, and a checkpoint
//   epoch under a fresh plan re-establishes full protection. The guests
//   stay where recovery put them: nothing in the library live-migrates a
//   running VM (docs/PROTOCOL.md, "Live migration between epochs").
//
// Exits 1 when a step does not do what it narrates.
//
//   $ ./operations_day

#include <cstdio>
#include <string>

#include "core/recovery.hpp"
#include "core/runtime.hpp"
#include "core/scrub.hpp"

using namespace vdc;
using namespace vdc::core;

namespace {

int fail(const char* step) {
  std::fprintf(stderr, "operations_day: %s\n", step);
  return 1;
}

}  // namespace

int main() {
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(777));
  ClusterConfig cc;
  cc.page_size = kib(4);
  cc.pages_per_vm = 128;
  cc.write_rate = 300.0;
  auto workloads = make_workload_factory(cc);
  for (int n = 0; n < 4; ++n) cluster.add_node();
  for (int n = 0; n < 4; ++n)
    for (int v = 0; v < 3; ++v)
      cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));

  DvdcState state;
  DvdcCoordinator coordinator(sim, cluster, state);
  RecoveryManager recovery(sim, cluster, state, workloads);
  ParityScrubber scrubber(sim, cluster, state);

  auto placed = PlacedPlan::make(GroupPlanner().plan(cluster), cluster);
  const auto loads = [&] {
    std::string out;
    for (cluster::NodeId n : cluster.alive_nodes())
      out += std::to_string(cluster.node(n).hypervisor().vm_count()) + " ";
    return out;
  };

  // t=0: first checkpoint.
  bool committed = false;
  coordinator.run_epoch(placed, 1, [&](const EpochStats& s) {
    committed = s.committed;
    if (!committed) return;
    std::printf("[%7.2fs] epoch 1 committed (overhead %.0f ms, %zu groups, "
                "%.1f MiB in memory)\n",
                sim.now(), s.overhead * 1e3, s.groups,
                state.memory_bytes() / (1024.0 * 1024.0));
  });
  sim.run();
  if (!committed) return fail("epoch 1 did not commit");

  // t=60: silent corruption strikes a parity block; the scrubber catches
  // it before it can poison a future recovery.
  sim.run_until(60.0);
  cluster.advance_workloads(60.0);
  scrubber.inject_corruption(2, 0, 1234);
  std::printf("[%7.2fs] injected a bit flip into group 2's parity\n",
              sim.now());
  bool scrubbed = false;
  scrubber.scrub(placed, /*repair=*/true, [&](const ScrubReport& r) {
    scrubbed = !r.mismatched.empty() && r.repaired == r.mismatched.size();
    std::printf("[%7.2fs] scrub: %zu groups checked, %zu mismatch, %zu "
                "repaired (%.1f MiB verified in %.2f s)\n",
                sim.now(), r.groups_checked, r.mismatched.size(),
                r.repaired, r.bytes_verified / (1024.0 * 1024.0),
                r.duration);
  });
  sim.run();
  if (!scrubbed) return fail("scrub did not find and repair the bit flip");

  // t=120: node 1 dies.
  sim.run_until(120.0);
  cluster.advance_workloads(60.0);
  const auto lost = cluster.node(1).hypervisor().vm_ids();
  cluster.kill_node(1);
  state.drop_node(1);
  std::printf("[%7.2fs] node 1 FAILED, lost %zu VMs; loads now: %s\n",
              sim.now(), lost.size(), loads().c_str());
  bool recovered = false;
  recovery.recover(placed, lost, [&](const RecoveryStats& r) {
    recovered = r.success;
    std::printf("[%7.2fs] recovery %s: %zu VMs rebuilt, %.1f MiB moved, "
                "%.2f s; loads: %s\n",
                sim.now(), r.success ? "OK" : "FAILED", r.vms_recovered,
                r.bytes_transferred / (1024.0 * 1024.0), r.duration,
                loads().c_str());
  });
  sim.run();
  if (!recovered) return fail("recovery failed");

  // The node is repaired and rejoins empty.
  cluster.revive_node(1);
  std::printf("[%7.2fs] node 1 repaired and back (empty); loads: %s\n",
              sim.now(), loads().c_str());

  // Placement changed: re-plan and take a fresh epoch to restore full
  // protection under the new layout.
  placed = PlacedPlan::make(GroupPlanner().plan(cluster), cluster);
  committed = false;
  coordinator.run_epoch(
      placed, state.committed_epoch() + 1, [&](const EpochStats& s) {
        committed = s.committed;
        if (!committed) return;
        std::printf("[%7.2fs] epoch %llu committed under the new plan "
                    "(full exchange: %s)\n",
                    sim.now(), static_cast<unsigned long long>(s.epoch),
                    s.full_exchange ? "yes" : "no");
      });
  sim.run();
  if (!committed) return fail("the epoch under the new plan did not commit");

  std::printf("\nAll three mechanisms — checkpoint, scrub, recover — on "
              "one timeline.\n");
  return 0;
}
