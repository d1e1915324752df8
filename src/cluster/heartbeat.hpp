#pragma once
// Heartbeat-based failure detection.
//
// Each node emits a heartbeat frame every `period` toward the observer
// node (conceptually the checkpoint coordinator) over the fabric, judged by
// its fault plane; the detector declares a node failed after `timeout`
// without one. Drops, corruption (caught by a real CRC32 check) and
// partitions delay or defeat individual beats, so a partitioned-but-alive
// node times out — a *false positive*. Such a node stays reported until a
// beat gets through again, at which point the false-positive callback
// fires and the caller reconciles (fencing + rejoin); note_repair re-arms
// the tracker.

#include <functional>
#include <vector>

#include "cluster/heartbeat_config.hpp"
#include "cluster/manager.hpp"
#include "simkit/simulator.hpp"

namespace vdc::cluster {

class HeartbeatDetector {
 public:
  /// `on_detect(node, detection_latency)` fires once per detected failure
  /// (confirmed or merely suspected).
  using DetectCallback = std::function<void(NodeId, SimTime)>;
  /// Ground-truth liveness for the beat emitters: must be true for a node
  /// that is physically up even if the cluster has declared it dead (the
  /// zombie keeps beating — that is how the false positive is eventually
  /// discovered).
  using LivePredicate = std::function<bool(NodeId)>;
  using FalsePositiveCallback = std::function<void(NodeId)>;

  /// Nodes emit beats to `observer`'s host across `fabric`'s fault plane
  /// while `live` holds for them.
  HeartbeatDetector(simkit::Simulator& sim, ClusterManager& cluster,
                    net::Fabric& fabric, NodeId observer, LivePredicate live,
                    HeartbeatConfig config = {});

  /// A beat arrived from a node already reported failed whose failure was
  /// never note_failure()d — a false positive. Fires once per suspicion;
  /// note_repair re-arms it.
  void set_on_false_positive(FalsePositiveCallback cb) {
    on_false_positive_ = std::move(cb);
  }

  void start(DetectCallback on_detect);
  void stop();

  /// Tell the detector a node failed at `t` (the ClusterManager's
  /// kill_node caller does this so detection latency can be measured).
  /// A node already reported — e.g. suspected through a partition before
  /// it really died — is NOT re-reported.
  void note_failure(NodeId node, SimTime t);

  /// Forget a node's failure record (after repair/revive/rejoin) and
  /// re-arm the node's beat emitter.
  void note_repair(NodeId node);

  std::uint64_t detections() const { return detections_; }

  /// True while `node` is reported failed but was never note_failure()d
  /// (a suspicion that may yet prove false).
  bool suspected(NodeId node) const;

 private:
  void tick();
  void schedule_beat(NodeId node);
  void emit_beat(NodeId node);
  void on_beat(NodeId node);
  void grow_trackers();

  struct Tracker {
    SimTime last_seen = 0.0;
    SimTime failed_at = -1.0;  // < 0: believed alive
    bool reported = false;
    bool false_positive_flagged = false;
  };

  simkit::Simulator& sim_;
  ClusterManager& cluster_;
  HeartbeatConfig config_;
  DetectCallback on_detect_;
  FalsePositiveCallback on_false_positive_;
  net::Fabric& fabric_;
  NodeId observer_;
  LivePredicate live_;
  std::vector<simkit::EventId> beat_timers_;
  std::uint64_t beat_seq_ = 0;

  std::vector<Tracker> trackers_;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  bool running_ = false;
  std::uint64_t detections_ = 0;
};

}  // namespace vdc::cluster
