#pragma once
// Two-level (multilevel) checkpointing: diskless first, disk behind it.
//
// Section II-B.2 concedes that "the simplicity and reliability of
// secondary storage has kept traditional disk-based checkpointing as the
// mainstream method"; production diskless systems (e.g. the LLNL usage
// the paper cites) therefore layer the two. This backend runs DVDC for
// every epoch and, every `flush_every`-th commit, also drains the
// committed images to the NAS *asynchronously* (no added guest overhead).
// Failures within the codec's tolerance recover disklessly as usual; a
// catastrophic loss (e.g. a double-node failure under RAID-5) falls back
// to the last durable NAS level instead of restarting the job from
// scratch — trading a larger rollback for survival.

#include "core/baseline.hpp"
#include "core/runtime.hpp"
#include "storage/nas.hpp"

namespace vdc::core {

struct TwoLevelConfig {
  /// Flush to the NAS after every K-th committed DVDC epoch.
  std::uint32_t flush_every = 6;
  storage::NasSpec nas{};
};

class TwoLevelBackend final : public CheckpointBackend {
 public:
  TwoLevelBackend(simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  ProtocolConfig protocol, RecoveryConfig recovery,
                  WorkloadFactory workloads, TwoLevelConfig config = {},
                  PlannerConfig planner = {});

  void checkpoint(checkpoint::Epoch epoch, EpochDone done) override;
  SimTime early_resume_delay() const override {
    return dvdc_.early_resume_delay();
  }
  void abort_checkpoint() override { dvdc_.abort_checkpoint(); }
  void on_node_failure(cluster::NodeId victim) override;
  void handle_failure(const std::vector<vm::VmId>& lost,
                      RecoveryDone done) override;
  bool abort_recovery() override;
  checkpoint::Epoch committed_epoch() const override {
    return dvdc_.committed_epoch();
  }
  void on_job_restart() override;
  std::string name() const override { return "dvdc+nas"; }

  /// Last epoch whose images are durable on the NAS (0 = none yet).
  checkpoint::Epoch flushed_epoch() const { return flushed_epoch_; }
  std::uint64_t level2_restores() const { return level2_restores_; }

 private:
  void start_flush(checkpoint::Epoch epoch);
  void level2_restore(RecoveryDone done);

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  WorkloadFactory workloads_;
  TwoLevelConfig config_;
  DvdcBackend dvdc_;
  storage::Nas nas_;

  // Durable level: full images keyed by VM for `flushed_epoch_`, plus the
  // in-flight flush being built.
  std::unordered_map<vm::VmId, std::vector<std::byte>> durable_;
  std::unordered_map<vm::VmId, VmInfo> durable_info_;
  checkpoint::Epoch flushed_epoch_ = 0;
  std::uint64_t flush_generation_ = 0;
  std::uint64_t level2_restores_ = 0;
  // In-flight level-2 restore (abortable: a cascading failure bumps the
  // generation so stale NAS-fetch completions no-op).
  std::uint64_t restore_generation_ = 0;
  bool restore_active_ = false;
  // An aborted restore re-placed VMs with OLD durable-level content, so a
  // retry must not "succeed" trivially at the diskless level: route it
  // straight back to level-2 until a restore completes.
  bool level2_pending_ = false;
  // Commit bookkeeping since the current baseline (job start, scratch
  // restart or level-2 restore): how far the durable level lags.
  std::uint64_t commit_counter_ = 0;
  std::uint64_t flushed_counter_ = 0;
};

}  // namespace vdc::core
