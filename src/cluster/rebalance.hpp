#pragma once
// Cluster-aware live migration and load rebalancing.
//
// The raw PreCopyMigrator moves a guest between two hypervisors; this
// service keeps the ClusterManager's placement registry, which is also
// the VM's name binding, consistent while doing so (the "global names"
// bookkeeping of paper Section II-A), and the Rebalancer uses it to smooth VM counts after
// recovery has piled guests onto the surviving nodes — using live
// migration for management, exactly the §II-A motivation ("loads can be
// optimized", "moved away from failing hardware").

#include <deque>
#include <functional>

#include "cluster/manager.hpp"
#include "migration/precopy.hpp"

namespace vdc::cluster {

/// Live-migrates VMs between nodes of a ClusterManager, updating placement
/// and name bindings on completion. One migration in flight at a time;
/// additional requests queue FCFS.
class MigrationService {
 public:
  using DoneCallback =
      std::function<void(const migration::MigrationStats&)>;

  MigrationService(simkit::Simulator& sim, ClusterManager& cluster);

  /// Queue a live migration of `vm` to `target`.
  void migrate(vm::VmId vm, NodeId target, DoneCallback done);

  bool busy() const { return migrator_.busy() || !queue_.empty(); }
  std::uint64_t completed() const { return completed_; }

 private:
  struct Request {
    vm::VmId vm;
    NodeId target;
    DoneCallback done;
  };
  void pump();

  simkit::Simulator& sim_;
  ClusterManager& cluster_;
  migration::PreCopyMigrator migrator_;
  std::deque<Request> queue_;
  bool draining_ = false;
  std::uint64_t completed_ = 0;
};

struct RebalanceStats {
  std::size_t migrations = 0;
  Bytes bytes_moved = 0;
  SimTime duration = 0.0;
  std::size_t max_load_before = 0;
  std::size_t max_load_after = 0;
};

/// Greedy load smoother: repeatedly move one VM from the most- to the
/// least-loaded alive node until the spread is at most one.
class Rebalancer {
 public:
  using DoneCallback = std::function<void(const RebalanceStats&)>;

  Rebalancer(simkit::Simulator& sim, ClusterManager& cluster,
             MigrationService& migrations)
      : sim_(sim), cluster_(cluster), migrations_(migrations) {}

  /// Plan and execute migrations; `done` fires when the cluster is
  /// balanced (or no further improving move exists).
  void rebalance(DoneCallback done);

 private:
  struct Spread {
    NodeId max_node = 0;
    NodeId min_node = 0;
    std::size_t max_load = 0;
    std::size_t min_load = 0;
  };
  Spread measure() const;
  void step(std::shared_ptr<RebalanceStats> stats, SimTime start,
            DoneCallback done);

  simkit::Simulator& sim_;
  ClusterManager& cluster_;
  MigrationService& migrations_;
};

}  // namespace vdc::cluster
