#pragma once
// DVDC failure recovery (paper Section IV-B / VI).
//
// When a physical node dies it takes its VMs and any parity blocks it held.
// Every stripe that lost blocks — members, parity, or both — is rebuilt
// the same way: k of its surviving blocks (the surviving members plus one
// parity block per lost member) stream to a leader, the new node of its
// first lost block, which rebuilds every lost block through the
// Reed-Solomon codec (k XORs for a RAID-5 single erasure, an e x e inverse
// for e erasures under RS(k,m), a re-encode for lost parity) and forwards
// the rest to their new nodes. The lost VMs are re-instantiated, and then
// the *whole cluster* rolls back to the committed epoch and resumes — the
// DVDC-vs-Remus trade the paper discusses: recovery is not instant, but no
// dedicated standby capacity is required.

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/hardware.hpp"
#include "core/protocol.hpp"

namespace vdc::core {

/// Recovery costs shared by every backend (DVDC, disk-full, two-level):
/// the re-create + resume cost per recovered VM (hardware::kResumeTime),
/// and the local memory-copy rate for rolling surviving VMs back.
inline constexpr Rate kRestoreRate = gib_per_s(8);

struct RecoveryConfig {
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
  bool active() const { return attempt_ != nullptr; }

 private:
  struct Attempt;
  using PendingLoad = std::unordered_map<cluster::NodeId, std::size_t>;

  struct PendingVm {
    vm::VmId id = 0;
    cluster::NodeId target = 0;
    std::vector<std::byte> payload;
  };

  /// One damaged stripe's rebuild: the blocks streamed to the leader, the
  /// leader's forwards of rebuilt data, the VMs it re-creates and the
  /// parity record it publishes.
  struct StripeRebuild {
    GroupId gid = 0;
    cluster::NodeId leader = 0;
    std::vector<std::pair<net::HostId, Bytes>> inbound;       // -> leader
    std::vector<std::pair<cluster::NodeId, Bytes>> forwards;  // leader ->
    std::vector<PendingVm> vms;
    /// Set when parity blocks died with their holder: `record` is the
    /// stripe with them rebuilt on replacement holders.
    bool publish_record = false;
    DvdcState::ParityRecord record;
  };

  /// Plans the rebuild of `group`'s committed stripe, which lost the
  /// members in `lost` (possibly none) and whatever parity blocks died
  /// with their holders. Returns nullopt when the stripe is not rebuilt:
  /// with `failure` set when members were lost (the recovery fails), and
  /// unset when only parity was (the next epoch re-encodes it).
  std::optional<StripeRebuild> plan_rebuild(const RaidGroup& group,
                                            const std::vector<vm::VmId>& lost,
                                            PendingLoad& pending_load,
                                            const telemetry::Labels& labels,
                                            std::string& failure);

  /// The least-loaded alive node that hosts no member of `group`, is none
  /// of `holders`, and is not `claimed` by this stripe's earlier picks
  /// (`pending_load` counts placements decided earlier in this recovery,
  /// so lost VMs spread out).
  cluster::NodeId pick_node(const RaidGroup& group,
                            std::span<const cluster::NodeId> holders,
                            const PendingLoad& pending_load,
                            const std::unordered_set<cluster::NodeId>&
                                claimed) const;

  /// Streams every stripe's inbound blocks to its leader, folds them and
  /// sends the forwards; `after_all` runs once every stripe is done.
  void run_rebuilds(const std::shared_ptr<Attempt>& attempt,
                    const std::vector<StripeRebuild>& ops,
                    std::function<void()> after_all);

  enum class Outcome { kSucceeded, kFailed, kAborted };
  /// The one exit of an attempt: cancels its streams, drops its group
  /// engines and closes its span; unless aborted, it also resumes the
  /// cluster and reports the stats to the done callback.
  void settle(const std::shared_ptr<Attempt>& attempt, Outcome outcome,
              std::string reason = {});

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  DvdcState& state_;
  WorkloadFactory workloads_;
  RecoveryConfig config_;
  /// Monotonic recovery sequence number: labels each recovery's registry
  /// counters (`recovery.*{seq=N}`) so RecoveryStats can be derived per
  /// attempt without cross-talk.
  std::uint64_t seq_ = 0;
  /// The recovery in flight, if any.
  std::shared_ptr<Attempt> attempt_;
};

}  // namespace vdc::core
