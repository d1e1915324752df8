#include "cluster/heartbeat.hpp"

#include <array>
#include <utility>

#include "common/assert.hpp"
#include "common/crc32.hpp"
#include "net/fault.hpp"

namespace vdc::cluster {

HeartbeatDetector::HeartbeatDetector(simkit::Simulator& sim,
                                     ClusterManager& cluster,
                                     net::Fabric& fabric, NodeId observer,
                                     LivePredicate live,
                                     HeartbeatConfig config)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      fabric_(fabric),
      observer_(observer),
      live_(std::move(live)) {
  VDC_REQUIRE(config.period > 0.0, "heartbeat period must be positive");
  VDC_REQUIRE(config.timeout >= config.period,
              "timeout must cover at least one period");
  VDC_REQUIRE(live_ != nullptr, "the beat emitters need a liveness predicate");
}

void HeartbeatDetector::start(DetectCallback on_detect) {
  VDC_REQUIRE(!running_, "detector already running");
  running_ = true;
  on_detect_ = std::move(on_detect);
  // Failure/report state survives a stop/start cycle — a node already
  // reported dead must not be re-reported by a restart. Only the liveness
  // baselines reset: the stopped interval does not count as silence.
  trackers_.resize(cluster_.node_count());
  for (auto& t : trackers_) t.last_seen = sim_.now();
  beat_timers_.assign(cluster_.node_count(), simkit::kInvalidEvent);
  for (NodeId id = 0; id < beat_timers_.size(); ++id) schedule_beat(id);
  timer_ = sim_.after(config_.period, [this] { tick(); });
}

void HeartbeatDetector::stop() {
  running_ = false;
  if (timer_ != simkit::kInvalidEvent) {
    sim_.cancel(timer_);
    timer_ = simkit::kInvalidEvent;
  }
  for (auto& ev : beat_timers_) {
    if (ev != simkit::kInvalidEvent) sim_.cancel(ev);
    ev = simkit::kInvalidEvent;
  }
}

void HeartbeatDetector::note_failure(NodeId node, SimTime t) {
  VDC_ASSERT(node < trackers_.size());
  // `reported` is left alone: a node already suspected must not produce a
  // second detection when its real death is recorded.
  trackers_[node].failed_at = t;
}

void HeartbeatDetector::note_repair(NodeId node) {
  VDC_ASSERT(node < trackers_.size());
  trackers_[node] = Tracker{};
  trackers_[node].last_seen = sim_.now();
  if (running_ && node < beat_timers_.size() &&
      beat_timers_[node] == simkit::kInvalidEvent) {
    schedule_beat(node);
  }
}

bool HeartbeatDetector::suspected(NodeId node) const {
  if (node >= trackers_.size()) return false;
  const Tracker& t = trackers_[node];
  return t.reported && t.failed_at < 0.0;
}

void HeartbeatDetector::grow_trackers() {
  if (trackers_.size() >= cluster_.node_count()) return;
  Tracker fresh;
  fresh.last_seen = sim_.now();
  trackers_.resize(cluster_.node_count(), fresh);
  const std::size_t old = beat_timers_.size();
  beat_timers_.resize(cluster_.node_count(), simkit::kInvalidEvent);
  for (std::size_t id = old; id < beat_timers_.size(); ++id)
    schedule_beat(static_cast<NodeId>(id));
}

void HeartbeatDetector::schedule_beat(NodeId node) {
  beat_timers_[node] =
      sim_.after(config_.period, [this, node] { emit_beat(node); });
}

void HeartbeatDetector::emit_beat(NodeId node) {
  if (!running_) return;
  beat_timers_[node] = simkit::kInvalidEvent;
  if (!live_(node)) return;  // dead senders fall silent; note_repair re-arms
  schedule_beat(node);

  if (node == observer_) {
    // The observer sees itself locally; no wire involved.
    on_beat(node);
    return;
  }
  SimTime latency = fabric_.link_latency();
  if (fabric_.faults_active()) {
    const net::HostId src = cluster_.node(node).host();
    const net::HostId dst = cluster_.node(observer_).host();
    const net::Judgement verdict = fabric_.faults().judge(src, dst);
    if (verdict.outcome == net::Delivery::kDropped)
      return;  // net.drops counted by the fault plane
    latency += verdict.extra_latency;
    if (verdict.outcome == net::Delivery::kCorrupted) {
      // Beat frame {node, seq}: the CRC32 catches the flipped bit and the
      // observer discards the frame — effectively a lost beat.
      std::array<std::byte, 12> frame{};
      std::uint64_t seq = ++beat_seq_;
      for (int i = 0; i < 4; ++i)
        frame[i] = static_cast<std::byte>((node >> (8 * i)) & 0xff);
      for (int i = 0; i < 8; ++i)
        frame[4 + i] = static_cast<std::byte>((seq >> (8 * i)) & 0xff);
      const std::uint32_t crc = crc32(frame);
      if (net::crc_catches_flip(frame, crc, verdict.corrupt_bit)) {
        sim_.telemetry().metrics().add("net.corrupt_frames", 1.0);
        return;
      }
    }
  }
  sim_.after(latency, [this, node] {
    if (running_) on_beat(node);
  });
}

void HeartbeatDetector::on_beat(NodeId node) {
  grow_trackers();
  if (node >= trackers_.size()) return;
  Tracker& t = trackers_[node];
  t.last_seen = sim_.now();
  if (t.reported && t.failed_at < 0.0 && !t.false_positive_flagged) {
    // A node we declared dead is beating: the detection was a false
    // positive (partition / gray link). Flag once; the consumer fences
    // and rejoins, then note_repair resets the tracker.
    t.false_positive_flagged = true;
    sim_.telemetry().metrics().add("hb.false_positives", 1.0);
    if (on_false_positive_) on_false_positive_(node);
  }
}

void HeartbeatDetector::tick() {
  timer_ = simkit::kInvalidEvent;
  if (!running_) return;

  // Grow trackers if nodes were added after start().
  grow_trackers();

  for (NodeId id = 0; id < trackers_.size(); ++id) {
    Tracker& t = trackers_[id];
    if (t.reported) continue;
    if (sim_.now() - t.last_seen >= config_.timeout) {
      t.reported = true;
      ++detections_;
      sim_.telemetry().metrics().add("hb.suspected", 1.0);
      // A suspicion without a recorded crash reports the timeout itself
      // as its latency (the silence the observer actually measured).
      const SimTime latency = t.failed_at >= 0.0 ? sim_.now() - t.failed_at
                                                 : config_.timeout;
      if (on_detect_) on_detect_(id, latency);
      if (!running_) return;  // callback may stop us
    }
  }
  timer_ = sim_.after(config_.period, [this] { tick(); });
}

}  // namespace vdc::cluster
