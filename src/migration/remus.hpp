#pragma once
// Remus-style active/standby replication (Cully et al., NSDI'08).
//
// The paper positions DVDC against Remus (Section VI): Remus pairs each
// protected VM with a standby host and ships incremental checkpoints tens
// of times per second; on failure the standby resumes almost instantly
// from the last acknowledged epoch, losing only the unacknowledged
// speculation window. This implementation reproduces that protocol shape:
// epoch timer -> brief pause to capture the dirty set -> resume -> async
// ship (XOR+RLE compressed) -> ack moves the recovery point forward. It is
// the baseline for bench/recovery_comparison.

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "net/fabric.hpp"
#include "vm/machine.hpp"

namespace vdc::migration {

/// Checkpoint epoch length; 25 ms = the paper's "40 times a second".
inline constexpr SimTime kRemusEpoch = 0.025;
/// Rate of copying dirty pages into the staging buffer while paused.
inline constexpr Rate kRemusBufferCopyRate = gib_per_s(10);
/// Fixed suspend/resume cost per epoch.
inline constexpr SimTime kRemusPauseOverhead = 200e-6;

struct RemusConfig {
  /// Ship XOR+RLE-compressed deltas instead of raw dirty pages.
  bool compress = true;
};

struct RemusStats {
  std::uint64_t epochs_committed = 0;  // acked by the backup
  std::uint64_t epochs_captured = 0;
  std::uint64_t epochs_skipped = 0;    // timer fired while ship in flight
  SimTime total_pause_time = 0.0;      // overhead: guest suspended
  Bytes bytes_shipped = 0;
};

class RemusReplicator {
 public:
  RemusReplicator(simkit::Simulator& sim, net::Fabric& fabric,
                  vm::Hypervisor& primary, net::HostId primary_host,
                  net::HostId backup_host, vm::VmId protected_vm,
                  RemusConfig config = {});

  /// Begin the epoch timer. The first epoch ships the full image.
  void start();

  /// Stop replicating: cancels the epoch timer, the deferred staging-pause
  /// event and any in-flight ship flow. A guest left frozen mid-capture is
  /// resumed (failover() skips that — the primary is dead).
  void stop();

  /// Primary failed: promote the standby image. Returns the lost-work
  /// window (time since the last *acknowledged* capture) and the recovered
  /// full image. Stops replication.
  struct Failover {
    SimTime lost_work = 0.0;
    std::vector<std::byte> image;
  };
  Failover failover();

  const RemusStats& stats() const { return stats_; }

  /// Recovery-point staleness right now: time since last acked capture.
  SimTime staleness() const { return sim_.now() - last_ack_capture_time_; }

 private:
  void on_epoch_timer();
  void capture_and_ship();
  /// Fold the guest's dirty pages into base_ and clear its dirty log.
  /// Returns the staged bytes (whole dirty pages) and the XOR+RLE wire
  /// size of the same pages against the previous base_.
  std::pair<Bytes, Bytes> capture_dirty(vm::MemoryImage& image);
  /// Shared teardown. `resume_guest` distinguishes an orderly stop()
  /// (resume a guest frozen in the staging pause) from failover() (the
  /// primary is gone; never touch — let alone resume — its guest).
  void stop_internal(bool resume_guest);

  simkit::Simulator& sim_;
  net::Fabric& fabric_;
  vm::Hypervisor& primary_;
  net::HostId primary_host_;
  net::HostId backup_host_;
  vm::VmId vm_;
  RemusConfig config_;

  std::vector<std::byte> base_;          // the image as of the last capture
  std::vector<std::byte> backup_image_;  // standby's committed state
  std::vector<std::byte> pending_image_; // captured, in flight

  bool running_ = false;
  bool ship_in_flight_ = false;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  simkit::EventId pause_event_ = simkit::kInvalidEvent;  // staging-pause end
  net::FlowId ship_flow_ = net::kInvalidFlow;            // in-flight ship
  SimTime last_advance_ = 0.0;
  SimTime last_ack_capture_time_ = 0.0;
  RemusStats stats_;
};

}  // namespace vdc::migration
