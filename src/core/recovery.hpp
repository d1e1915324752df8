#pragma once
// DVDC failure recovery (paper Section IV-B / VI).
//
// When a physical node dies it takes its VMs and any parity blocks it held.
// For every RAID group that lost members, the surviving members and parity
// holders stream their committed blocks to a recovery node, which rebuilds
// the lost checkpoints through the Reed-Solomon codec (k XORs for a RAID-5
// single erasure, an e x e inverse for e erasures under RS(k,m)),
// re-instantiates the lost VMs, and then the *whole cluster* rolls
// back to the committed epoch and resumes — the DVDC-vs-Remus trade the
// paper discusses: recovery is not instant, but no dedicated standby
// capacity is required.

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/protocol.hpp"

namespace vdc::core {

struct RecoveryConfig {
  /// Re-create + resume cost per recovered VM.
  SimTime resume_time = 5.0;
  /// Local memory-copy rate for rolling surviving VMs back.
  Rate restore_rate = gib_per_s(8);
  /// Chunked reconstruction streaming: survivors stream in
  /// `chunking.chunk_bytes` segments, the leader folds each chunk index as
  /// soon as every inbound stream has delivered it (decode overlaps the
  /// wire), and forwards of rebuilt data are released as the fold frontier
  /// advances. chunk_bytes == 0 (default) keeps the legacy
  /// stream-all / decode / forward sequence.
  net::ChunkPolicy chunking;
};

struct RecoveryStats {
  SimTime duration = 0.0;        // recover() call to cluster resumed
  Bytes bytes_transferred = 0;   // reconstruction traffic
  std::size_t vms_recovered = 0;
  std::size_t groups_touched = 0;
  /// Committed epochs lost beyond the restored level (0 for ordinary
  /// diskless recovery; > 0 when a multilevel backend fell back to an
  /// older durable level). The job runner rolls its work watermark back
  /// by this many intervals.
  std::uint32_t epochs_rolled_back = 0;
  /// Decode time that ran while inbound streams were still on the wire
  /// (summed across groups; 0 without chunking).
  SimTime pipeline_overlap = 0.0;
  bool success = false;
  std::string reason;            // set when success == false
};

/// Builds a fresh guest workload for a VM being re-instantiated.
using WorkloadFactory =
    std::function<std::unique_ptr<vm::Workload>(vm::VmId)>;

class RecoveryManager {
 public:
  using DoneCallback = std::function<void(const RecoveryStats&)>;

  RecoveryManager(simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  DvdcState& state, WorkloadFactory workloads,
                  RecoveryConfig config = {});

  /// Recover the given lost VMs under `plan` and roll the cluster back to
  /// the committed epoch. Requires at least one committed epoch. On an
  /// uncorrectable erasure pattern the callback reports success == false
  /// and the cluster is left rolled back with the lost VMs still missing
  /// (the caller decides whether to restart the job).
  void recover(const PlacedPlan& plan, std::vector<vm::VmId> lost,
               DoneCallback done);

  /// Abort the in-flight recovery (a cascading failure invalidated it):
  /// no further timed events for it take effect and its done callback is
  /// dropped. The cluster is left as the abort finds it — guests paused,
  /// possibly partially rolled back — which is safe because any state the
  /// aborted attempt did commit (re-placed VMs, published parity) is
  /// exact committed-epoch state; the supervisor's next recover() call
  /// reconstructs whatever is still missing. Returns false when idle.
  bool abort();

  /// True while a recover() is in flight (and not yet aborted/settled).
  bool active() const { return static_cast<bool>(abort_hook_); }

 private:
  struct PendingVm {
    vm::VmId id = 0;
    cluster::NodeId target = 0;
    std::vector<std::byte> payload;
  };

  /// `pending_load` counts placements decided earlier in this recovery so
  /// multiple lost VMs spread across the survivors instead of piling onto
  /// one node; `claimed` are nodes this group has already assigned in this
  /// pass (pending member targets / new parity holders) and must avoid to
  /// stay orthogonal.
  cluster::NodeId pick_target(
      const RaidGroup& group,
      const std::unordered_map<cluster::NodeId, std::size_t>& pending_load,
      const std::unordered_set<cluster::NodeId>& claimed) const;

  /// Node to host a REBUILT parity block of `group`: any alive node not
  /// hosting a member, not already holding another live block of this
  /// stripe, and not claimed in this pass. Unlike pick_target, the dead
  /// block's former (possibly repaired) holder is a valid choice.
  cluster::NodeId pick_parity_holder(
      const RaidGroup& group, const DvdcState::ParityRecord& record,
      const std::unordered_map<cluster::NodeId, std::size_t>& pending_load,
      const std::unordered_set<cluster::NodeId>& claimed) const;

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  DvdcState& state_;
  WorkloadFactory workloads_;
  RecoveryConfig config_;
  /// Monotonic recovery sequence number: labels each recovery's registry
  /// counters (`recovery.*{seq=N}`) so RecoveryStats can be derived per
  /// attempt without cross-talk.
  std::uint64_t seq_ = 0;
  /// Set while a recovery is in flight; invoking it marks the attempt's
  /// shared context aborted (stale events no-op) and closes its spans.
  std::function<void()> abort_hook_;
};

}  // namespace vdc::core
