#pragma once
// Deterministic raft-style replicated control plane.
//
// The first `kReplicas` cluster nodes (node id == replica slot) host one
// raft participant each. Replica 0 boots as leader of term 1 — mirroring
// the implicit node-0 coordinator the plane replaces, and keeping a
// zero-coordinator-fault run free of a t=0 election. Frames travel the
// judged fault plane the way heartbeat beats do (latency-class messages:
// LinkFaultInjector::judge + CRC over an encoded frame + a timed delivery,
// never a FlowNetwork flow, so enabling the plane cannot perturb
// rate-sharing on the data plane). Retransmission is raft's own: the
// leader re-offers unacknowledged suffixes on every heartbeat until the
// matching ack arrives.
//
// Divergences from textbook raft, forced by the diskless model:
//   - No stable storage. A replica that dies loses term, vote, and log.
//     It rejoins as an *unsynced* follower that abstains from voting and
//     from starting elections until it holds a committed record from the
//     current leader's term — the catch-up fence that keeps an amnesiac
//     replica from double-voting in an old term. Quorum is counted over
//     the full replica set, never just the live ones.
//   - Fencing integration: followers reject AppendEntries whose sender is
//     fenced by the cluster (ClusterManager::is_fenced) — a deposed leader
//     that was declared dead behind a partition cannot replicate a late
//     epoch commit into the quorum even before its term is superseded.
//   - Election timeouts, and nothing else, consume the plane's private
//     Rng stream; data-plane randomness is untouched.
//
// Safety is audited, not assumed: the plane latches election_safety_ok()
// (at most one leader per term, at most one commit-advancing leader per
// term), epoch_sequence_ok() (committed epoch numbers gap-free and
// monotone per job incarnation), and logs_consistent() (pairwise equal
// committed prefixes) for the invariant suites.

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cluster/manager.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "controlplane/log.hpp"
#include "simkit/simulator.hpp"

namespace vdc::controlplane {

/// Replica count (clamped to the cluster size at start()). 3 tolerates
/// one replica down; elections stall — safely — below quorum.
inline constexpr std::uint32_t kReplicas = 3;
/// Leader append/heartbeat cadence; also the retransmission period for
/// unacknowledged log suffixes.
inline constexpr SimTime kHeartbeatPeriod = 0.05;
/// Randomized election timeout bounds (uniform draw per arming).
inline constexpr SimTime kElectionTimeoutMin = 0.15;
inline constexpr SimTime kElectionTimeoutMax = 0.30;
/// Cap on log records per AppendEntries frame (catch-up batch size).
inline constexpr std::size_t kMaxBatch = 128;

/// Turns the control plane on for a job (JobConfig::control); its
/// parameters are the constants above.
struct ControlPlaneConfig {};

class ControlPlane {
 public:
  /// Resolution of an append() the caller asked to be notified about:
  /// true = the record is quorum-committed; false = it can no longer
  /// commit under this leader (leader deposed/killed, record discarded).
  using CommitCallback = std::function<void(bool committed)>;
  using LeaderCallback = std::function<void(NodeId leader, Term term)>;
  /// Physical liveness (a zombie behind a partition is live). Defaults to
  /// ClusterManager::node(id).alive().
  using LivePredicate = std::function<bool(NodeId)>;

  ControlPlane(simkit::Simulator& sim, cluster::ClusterManager& cluster,
               Rng rng);

  /// Must be set before start() if zombies should keep their replicas
  /// running (the deposed-leader-behind-a-partition scenario).
  void set_live_predicate(LivePredicate live) { live_ = std::move(live); }
  void set_on_leader_change(LeaderCallback cb) { on_leader_change_ = std::move(cb); }

  void start();
  void stop();

  /// The node currently acting as leader: the highest-term live leader,
  /// nullopt during an election gap.
  std::optional<NodeId> leader() const;
  Term term() const;
  std::uint64_t elections() const { return elections_; }
  std::size_t replica_count() const { return replicas_.size(); }
  bool is_replica(NodeId node) const { return node < replicas_.size(); }

  /// Run `cb` once a leader exists (immediately if one does now).
  void await_leader(std::function<void(NodeId)> cb);

  /// Append a control record through the current leader. Returns false if
  /// there is no leader (caller queues and retries on leader change). The
  /// optional callback reports quorum commit or abandonment — at most
  /// once.
  bool append(const ControlEntry& entry, CommitCallback cb = nullptr);

  /// Enough replicas live for a quorum, but too few of them synced to
  /// form one. Unsynced replicas abstain, and only a leader syncs them,
  /// so no leader can ever be elected.
  bool quorum_stranded() const;
  /// Re-form a plane that lost its quorum, for a job restart: every
  /// replica starts over empty and synced (a dead one stays down,
  /// unsynced), and the lowest live replica leads, at a term above any
  /// seen so far. Pending commit waiters fail; their records are gone
  /// with the old logs.
  void reform();

  /// A replica node physically died: its volatile raft state is gone.
  void on_node_death(NodeId node);
  /// A replica node came back (empty). It rejoins unsynced.
  void on_node_rejoin(NodeId node);

  const CoordinatorView& view(NodeId node) const;
  /// The acting leader's applied view (nullptr during an election gap).
  const CoordinatorView* leader_view() const;
  const std::vector<LogRecord>& log(NodeId node) const;
  /// Replica introspection for tests and stall diagnosis.
  bool replica_synced(NodeId node) const { return replicas_[node].synced; }

  // --- audited invariants ---------------------------------------------------
  bool election_safety_ok() const { return election_safety_ok_; }
  bool epoch_sequence_ok() const;
  bool logs_consistent() const;

 private:
  struct Replica {
    enum class Role : std::uint8_t { kFollower, kCandidate, kLeader };
    Role role = Role::kFollower;
    Term term = 0;
    std::int64_t voted_for = -1;  // slot granted our vote this term
    std::vector<LogRecord> log;
    LogIndex commit = 0;
    LogIndex applied = 0;
    CoordinatorView view;
    /// False from (re)join until a committed record of the current
    /// leader's term lands; gates voting and candidacy (see file header).
    bool synced = true;
    std::uint32_t votes = 0;
    std::vector<LogIndex> next_index;
    std::vector<LogIndex> match_index;
    simkit::EventId election_timer = simkit::kInvalidEvent;
    simkit::EventId heartbeat_timer = simkit::kInvalidEvent;
  };

  struct Waiter {
    NodeId slot = 0;  // leader the record was appended through
    Term term = 0;
    LogIndex index = 0;
    SimTime appended = 0.0;
    CommitCallback cb;
  };

  bool live(NodeId slot) const;
  std::uint32_t quorum() const;
  telemetry::MetricsRegistry& metrics();

  void arm_election(NodeId slot);
  void disarm(Replica& r);
  void on_election_timeout(NodeId slot);
  void become_leader(NodeId slot);
  void step_down(NodeId slot, Term term);
  void note_leader(NodeId slot);

  void send(NodeId from, NodeId to, Frame frame);
  void deliver(const Frame& frame);
  void on_request_vote(NodeId slot, const Frame& f);
  void on_vote(NodeId slot, const Frame& f);
  void on_append(NodeId slot, const Frame& f);
  void on_ack(NodeId slot, const Frame& f);

  void send_append(NodeId leader_slot, NodeId peer);
  void broadcast_append(NodeId leader_slot);
  void schedule_heartbeat(NodeId slot);
  void advance_commit(NodeId leader_slot);
  void apply_committed(NodeId slot);

  void resolve_committed_waiters(Term term, LogIndex index);
  void fail_waiters_for_slot(NodeId slot);
  void fail_impossible_waiters(NodeId new_leader_slot);

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  Rng rng_;
  LivePredicate live_;
  bool running_ = false;
  std::vector<Replica> replicas_;
  std::vector<Waiter> waiters_;
  std::vector<std::function<void(NodeId)>> leader_waiters_;
  LeaderCallback on_leader_change_;
  std::uint64_t elections_ = 0;
  bool election_safety_ok_ = true;
  std::map<Term, NodeId> leaders_per_term_;
  std::map<Term, NodeId> commits_per_term_;
  telemetry::MetricHandle frames_{sim_.telemetry().metrics(), "cp.frames"};
  telemetry::MetricHandle wire_bytes_{sim_.telemetry().metrics(),
                                      "cp.wire.bytes"};
};

}  // namespace vdc::controlplane
