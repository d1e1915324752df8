#pragma once
// Live migration of VMs between physical hosts (Clark et al., NSDI'05).
//
// Pre-copy: round 0 ships the whole image while the guest runs; each
// following round ships the pages dirtied during the previous round. When
// the dirty set is small enough (or rounds run out), the guest is paused
// and the residue is shipped — that final stop-and-copy window is the
// downtime, which the paper quotes at tens of milliseconds. The guest
// workload keeps dirtying memory *during* transfer rounds, so convergence
// genuinely depends on the dirty rate vs. link speed, as in the original
// paper. StopAndCopy (pause, ship everything, resume) is the baseline.

#include <functional>

#include "net/fabric.hpp"
#include "vm/machine.hpp"

namespace vdc::migration {

/// Pre-copy rounds, round 0 (the full image) included, before
/// stop-and-copy is forced.
inline constexpr std::uint32_t kPreCopyMaxRounds = 8;
/// Enter stop-and-copy when the dirty set drops to this many pages.
inline constexpr std::size_t kPreCopyStopDirtyPages = 64;
/// Enter stop-and-copy when a round shrinks the dirty set by less than
/// this factor (writable-working-set plateau).
inline constexpr double kPreCopyMinShrink = 0.95;
/// Fixed guest suspend/resume cost added to every migration's downtime
/// (pre-copy, stop-and-copy and dedup alike).
inline constexpr SimTime kSwitchOverhead = milliseconds(3);

struct MigrationStats {
  SimTime total_time = 0.0;  // first byte to guest running on destination
  SimTime downtime = 0.0;    // guest paused
  Bytes bytes_sent = 0;
  std::uint32_t rounds = 0;  // pre-copy rounds before stop-and-copy
  bool converged = false;    // dirty set met the threshold (vs. round cap)
  /// Rounds where a checkpoint epoch consumed the dirty log mid-transfer
  /// and the migrator had to fall back to shipping the full image.
  std::uint32_t dirty_log_fallbacks = 0;
};

/// Migrates one VM between two hypervisors over the fabric. The migrator
/// advances the guest's workload across each transfer round, so dirtying
/// during migration is accounted for. One migration at a time per instance.
class PreCopyMigrator {
 public:
  using DoneCallback = std::function<void(const MigrationStats&)>;

  PreCopyMigrator(simkit::Simulator& sim, net::Fabric& fabric)
      : sim_(sim), fabric_(fabric) {}

  /// Begin migrating `id` from (src hypervisor, src host) to (dst
  /// hypervisor, dst host). `done` fires when the guest runs on dst.
  void migrate(vm::VmId id, vm::Hypervisor& src, net::HostId src_host,
               vm::Hypervisor& dst, net::HostId dst_host, DoneCallback done);

  bool busy() const { return busy_; }

  /// Abort the in-flight migration (the source node failed, or the caller
  /// changed its mind): cancels the current transfer flow and switch-over
  /// event, drops the done callback, resumes a guest left frozen for
  /// stop-and-copy (if it still exists) and resets busy(). No-op when idle.
  void cancel();

 private:
  void run_round(std::uint32_t round, SimTime round_start, Bytes to_send,
                 std::size_t prev_dirty);
  void final_copy(SimTime start);
  void finish();

  simkit::Simulator& sim_;
  net::Fabric& fabric_;

  // In-flight migration state.
  bool busy_ = false;
  vm::VmId vm_ = 0;
  vm::Hypervisor* src_ = nullptr;
  vm::Hypervisor* dst_ = nullptr;
  net::HostId src_host_ = 0;
  net::HostId dst_host_ = 0;
  DoneCallback done_;
  MigrationStats stats_;
  SimTime start_time_ = 0.0;
  /// Dirty generation observed after our last clear_dirty(). The
  /// checkpoint coordinator consumes the same log (generation-checked on
  /// its side too); a mismatch at round end means an epoch cleared it
  /// mid-round and the incremental round residue is untrustworthy.
  std::uint64_t dirty_gen_ = 0;
  net::FlowId flow_ = net::kInvalidFlow;           // in-flight round/residue
  simkit::EventId event_ = simkit::kInvalidEvent;  // switch-over timer
};

/// Pause, ship the whole image, resume on the destination. Downtime is the
/// entire transfer: the baseline pre-copy beats.
class StopAndCopyMigrator {
 public:
  using DoneCallback = std::function<void(const MigrationStats&)>;

  StopAndCopyMigrator(simkit::Simulator& sim, net::Fabric& fabric)
      : sim_(sim), fabric_(fabric) {}

  void migrate(vm::VmId id, vm::Hypervisor& src, net::HostId src_host,
               vm::Hypervisor& dst, net::HostId dst_host, DoneCallback done);

 private:
  simkit::Simulator& sim_;
  net::Fabric& fabric_;
};

}  // namespace vdc::migration
