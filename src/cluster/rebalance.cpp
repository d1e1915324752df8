#include "cluster/rebalance.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::cluster {

MigrationService::MigrationService(simkit::Simulator& sim,
                                   ClusterManager& cluster)
    : sim_(sim), cluster_(cluster), migrator_(sim, cluster.fabric()) {}

void MigrationService::migrate(vm::VmId vm, NodeId target,
                               DoneCallback done) {
  const auto loc = cluster_.locate(vm);
  VDC_REQUIRE(loc.has_value(), "migrate: VM is not placed");
  VDC_REQUIRE(cluster_.node(target).alive(),
              "migrate: target node is dead");
  VDC_REQUIRE(*loc != target, "migrate: VM already on the target node");
  queue_.push_back(Request{vm, target, std::move(done)});
  pump();
}

void MigrationService::pump() {
  if (draining_ || queue_.empty() || migrator_.busy()) return;
  draining_ = true;
  Request req = std::move(queue_.front());
  queue_.pop_front();

  const auto loc = cluster_.locate(req.vm);
  if (!loc.has_value() || !cluster_.node(req.target).alive()) {
    // The VM or the target vanished while queued; drop the request.
    draining_ = false;
    if (req.done) req.done(migration::MigrationStats{});
    sim_.after(0.0, [this] { pump(); });
    return;
  }

  auto& src = cluster_.node(*loc);
  auto& dst = cluster_.node(req.target);
  migrator_.migrate(
      req.vm, src.hypervisor(), src.host(), dst.hypervisor(), dst.host(),
      [this, req = std::move(req)](const migration::MigrationStats& stats) {
        // The migrator moved the guest hypervisor-to-hypervisor; fix up
        // the cluster's placement registry and name binding.
        auto machine =
            cluster_.node(req.target).hypervisor().evict(req.vm);
        cluster_.place(std::move(machine), req.target);
        ++completed_;
        draining_ = false;
        VDC_DEBUG("rebalance", "vm ", req.vm, " migrated to node ",
                  req.target);
        if (req.done) req.done(stats);
        pump();
      });
}

Rebalancer::Spread Rebalancer::measure() const {
  Spread spread;
  bool first = true;
  for (NodeId nid : cluster_.alive_nodes()) {
    const std::size_t load = cluster_.node(nid).hypervisor().vm_count();
    if (first || load > spread.max_load) {
      spread.max_load = load;
      spread.max_node = nid;
    }
    if (first || load < spread.min_load) {
      spread.min_load = load;
      spread.min_node = nid;
    }
    first = false;
  }
  return spread;
}

void Rebalancer::rebalance(DoneCallback done) {
  auto stats = std::make_shared<RebalanceStats>();
  stats->max_load_before = measure().max_load;
  step(stats, sim_.now(), std::move(done));
}

void Rebalancer::step(std::shared_ptr<RebalanceStats> stats, SimTime start,
                      DoneCallback done) {
  const Spread spread = measure();
  if (spread.max_load <= spread.min_load + 1) {
    stats->max_load_after = spread.max_load;
    stats->duration = sim_.now() - start;
    if (done) done(*stats);
    return;
  }
  // Move the lowest-id VM off the most loaded node (deterministic).
  const auto vms =
      cluster_.node(spread.max_node).hypervisor().vm_ids();
  VDC_ASSERT(!vms.empty());
  const vm::VmId mover = vms.front();
  const Bytes image = cluster_.machine(mover).image().size_bytes();
  migrations_.migrate(
      mover, spread.min_node,
      [this, stats, start, image, done = std::move(done)](
          const migration::MigrationStats&) mutable {
        ++stats->migrations;
        stats->bytes_moved += image;
        step(stats, start, std::move(done));
      });
}

}  // namespace vdc::cluster
