#pragma once
// Failure injection over the discrete-event simulator.
//
// Two sources, each with the same start/stop surface:
//  * ClusterFailureInjector — one aggregate process for the whole system,
//    where each event strikes a uniformly random node. This is exactly the
//    "one Poisson process with rate lambda" abstraction the Section V model
//    uses (JobConfig::lambda), and the Monte-Carlo validation of
//    Eqs. (1)-(3) runs on it.
//  * ScheduledFailureInjector — a deterministic scripted fault schedule
//    (absolute fire time -> exact node id) for replayable multi-failure
//    scenarios (JobConfig::failure_schedule). The cascade tests and drills
//    are written against it; a test wanting per-node or bursty failure
//    clocks samples them itself and merges them into `fail` events.
//
// Victim semantics differ: the scripted injector names real node ids (a
// strike on a currently-dead node is the consumer's to skip); the
// aggregate injector emits an abstract index the consumer maps onto its
// alive set. The job runner holds each concretely and wires each
// callback with its own meaning.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "failure/distributions.hpp"
#include "simkit/simulator.hpp"

namespace vdc::failure {

using NodeId = std::uint32_t;

/// `on_failure(node)` fires at each failure instant.
using FailureCallback = std::function<void(NodeId)>;

class ClusterFailureInjector {
 public:
  /// One aggregate TTF process over `node_count` nodes; every failure
  /// event picks a victim uniformly at random. Its callback carries an
  /// index the consumer maps onto the currently-alive set.
  ClusterFailureInjector(simkit::Simulator& sim, Rng rng,
                         std::shared_ptr<TtfDistribution> ttf,
                         std::uint32_t node_count);
  // Scheduled events hold `this`.
  ClusterFailureInjector(const ClusterFailureInjector&) = delete;
  ClusterFailureInjector& operator=(const ClusterFailureInjector&) = delete;

  /// Begin injecting (idempotent).
  void start(FailureCallback on_failure);
  /// Stop injecting; pending events are cancelled.
  void stop();
  std::uint64_t failures_injected() const { return failures_; }

 private:
  void schedule_next();

  simkit::Simulator& sim_;
  Rng rng_;
  std::shared_ptr<TtfDistribution> ttf_;
  std::uint32_t node_count_;
  FailureCallback on_failure_;
  simkit::EventId pending_ = simkit::kInvalidEvent;
  bool running_ = false;
  std::uint64_t failures_ = 0;
};

/// One scripted event. The original form — node `node` fails at absolute
/// sim time `at` — is the default kind, so `{at, node}` aggregate
/// initialization keeps meaning "fail". The other kinds drive the network
/// fault plane and node repair for partition/gray-link drills.
struct ScheduledFailure {
  enum class Kind {
    kFail,       // kill `node`
    kRepair,     // repair/revive `node`
    kLink,       // install a LinkFault on `node` (or directed node->peer)
    kPartition,  // move `node` into partition group `group`
    kHeal,       // clear faults on `node` (or every host: node == kAllNodes)
    // Leader-targeted events: the victim is whoever leads the control
    // plane *at fire time* (node 0 when no control plane is running), so
    // `node` carries the kAllNodes sentinel and the consumer resolves it.
    kKillLeader,       // kill the current control-plane leader
    kPartitionLeader,  // move the current leader into partition `group`
  };
  /// Sentinel: "no specific peer" (whole-host link fault) / "every host"
  /// (heal target).
  static constexpr NodeId kAllNodes = ~NodeId{0};

  SimTime at = 0.0;
  NodeId node = 0;
  Kind kind = Kind::kFail;
  NodeId peer = kAllNodes;  // kLink: directed destination, or whole host
  double drop = 0.0;        // kLink: per-frame drop probability
  double corrupt = 0.0;     // kLink: per-frame bit-flip probability
  SimTime latency = 0.0;    // kLink: added one-way latency
  SimTime jitter = 0.0;     // kLink: uniform extra latency in [0, jitter]
  double rate = 1.0;        // kLink: NIC rate multiplier (gray link)
  std::uint32_t group = 0;  // kPartition: target group (0 = connected)
};

/// Deterministic scripted fault schedule. Events fire at their absolute
/// times in order; the schedule does not repeat. Strikes name exact node
/// ids, so a schedule replays bit-identically across runs — the substrate
/// for the cascade/escalation tests and for operator drills.
class ScheduledFailureInjector {
 public:
  /// Fires for every non-kFail event (repairs, link faults, partitions,
  /// heals). kFail strikes go through the start() callback only.
  using EventCallback = std::function<void(const ScheduledFailure&)>;

  ScheduledFailureInjector(simkit::Simulator& sim,
                           std::vector<ScheduledFailure> schedule);
  // Scheduled events hold `this`.
  ScheduledFailureInjector(const ScheduledFailureInjector&) = delete;
  ScheduledFailureInjector& operator=(const ScheduledFailureInjector&) =
      delete;

  /// Begin injecting (idempotent). The callback carries exact node ids.
  void start(FailureCallback on_failure);
  /// Stop injecting; pending events are cancelled.
  void stop();
  std::uint64_t failures_injected() const { return failures_; }

  void set_on_event(EventCallback cb) { on_event_ = std::move(cb); }

  /// Strikes not yet fired.
  std::size_t remaining() const { return schedule_.size() - next_; }

  /// Parse the fault-schedule text format (see docs/RECOVERY.md). One
  /// event per line; blank lines and `#` comments are ignored:
  ///   <time> <node>                      bare pair (legacy) = fail
  ///   fail <time> <node>
  ///   repair <time> <node>
  ///   link <time> <src> <dst>|- [drop=P] [corrupt=P] [latency=S]
  ///                              [jitter=S] [rate=F]
  ///   partition <time> <node> <group>
  ///   heal <time> <node>|all
  ///   kill-leader [at] <time>
  ///   partition-leader [at] <time> <group>
  /// `link ... -` faults every path touching <src>; naming <dst> faults
  /// only the directed src->dst link (an asymmetric "gray" link). Throws
  /// InvariantError on malformed input or times out of order.
  static std::vector<ScheduledFailure> parse(std::string_view text);

 private:
  void schedule_next();

  simkit::Simulator& sim_;
  std::vector<ScheduledFailure> schedule_;
  std::size_t next_ = 0;
  FailureCallback on_failure_;
  EventCallback on_event_;
  simkit::EventId pending_ = simkit::kInvalidEvent;
  bool running_ = false;
  std::uint64_t failures_ = 0;
};

}  // namespace vdc::failure
