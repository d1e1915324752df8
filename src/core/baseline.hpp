#pragma once
// Baseline checkpoint backends the paper compares DVDC against.
//
//  * DiskFullBackend — traditional coordinated checkpointing to shared
//    storage: every node streams its VMs' full images through the single
//    NAS front-end and onto the array; execution resumes when the data is
//    durable (or, in the async variant, after the local capture while the
//    flush proceeds — trading overhead for latency, Section II-B.2).
//  * NoCheckpointBackend — the restart model of Eq. (1): any failure sends
//    the job back to the beginning.

#include "core/runtime.hpp"
#include "storage/nas.hpp"

namespace vdc::core {

struct DiskFullConfig {
  storage::NasSpec nas{};
  SimTime base_overhead = 0.040;
  /// Synchronous (paper baseline): guests stay paused until durable.
  /// Async: guests resume after base_overhead + local capture; the flush
  /// continues in the background (checkpoint latency >> overhead).
  bool synchronous = true;
  /// Local capture copy rate for the async variant.
  Rate snapshot_rate = gib_per_s(8);
  SimTime commit_latency = 1e-3;
};

class DiskFullBackend final : public CheckpointBackend {
 public:
  DiskFullBackend(simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  WorkloadFactory workloads, DiskFullConfig config = {});

  void checkpoint(checkpoint::Epoch epoch, EpochDone done) override;
  SimTime early_resume_delay() const override;
  void abort_checkpoint() override;
  void handle_failure(const std::vector<vm::VmId>& lost,
                      RecoveryDone done) override;
  bool abort_recovery() override;
  checkpoint::Epoch committed_epoch() const override { return committed_; }
  void on_job_restart() override;
  std::string name() const override { return "disk-full"; }

  storage::Nas& nas() { return nas_; }

 private:
  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  WorkloadFactory workloads_;
  DiskFullConfig config_;
  storage::Nas nas_;

  checkpoint::CheckpointStore store_;  // content durably on the NAS
  std::unordered_map<vm::VmId, VmInfo> vm_info_;
  checkpoint::Epoch committed_ = 0;

  // In-flight epoch.
  std::uint64_t generation_ = 0;
  bool in_flight_ = false;
  checkpoint::Epoch epoch_ = 0;
  SimTime epoch_start_ = 0.0;
  std::size_t streams_pending_ = 0;
  EpochDone done_;
  EpochStats stats_;
  std::vector<checkpoint::Checkpoint> staged_;

  // In-flight recovery (abortable: a cascading failure bumps the
  // generation so stale NAS-fetch completions no-op).
  std::uint64_t recovery_generation_ = 0;
  bool recovery_active_ = false;
};

class NoCheckpointBackend final : public CheckpointBackend {
 public:
  void checkpoint(checkpoint::Epoch, EpochDone) override {
    throw InvariantError("NoCheckpointBackend cannot checkpoint");
  }
  SimTime early_resume_delay() const override { return -1.0; }
  void abort_checkpoint() override {}
  void handle_failure(const std::vector<vm::VmId>&,
                      RecoveryDone done) override {
    RecoveryStats rs;
    rs.success = false;
    rs.reason = "no checkpointing: restart from scratch";
    done(rs);
  }
  checkpoint::Epoch committed_epoch() const override { return 0; }
  std::string name() const override { return "none"; }
};

}  // namespace vdc::core
