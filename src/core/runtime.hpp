#pragma once
// End-to-end job execution under failures.
//
// The runtime drives a long-running SPMD job on a virtualized cluster:
// guests compute, a checkpoint is captured every `interval` of useful work,
// Poisson failures strike nodes, and the configured backend (DVDC, the
// disk-full NAS baseline, or none) decides what a checkpoint costs and how
// recovery happens. The same loop therefore serves as (a) the system
// itself, (b) the discrete-event corroboration of the Section V model, and
// (c) the harness behind the comparison benches.
//
// Work accounting: the job needs `total_work` seconds of fault-free
// compute. Work accrues while guests run, stops during capture stalls and
// recovery, and rolls back to the last committed checkpoint on failure.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>

#include "cluster/heartbeat.hpp"
#include "cluster/manager.hpp"
#include "controlplane/raft.hpp"
#include "core/adaptive.hpp"
#include "core/protocol.hpp"
#include "core/recovery.hpp"
#include "failure/injector.hpp"
#include "workload/traffic.hpp"

namespace vdc::core {

/// What a checkpoint/recovery scheme must provide to the job loop.
class CheckpointBackend {
 public:
  using EpochDone = std::function<void(const EpochStats&)>;
  using RecoveryDone = std::function<void(const RecoveryStats&)>;
  /// Two-phase epoch commit hook (see DvdcCoordinator::set_commit_gate):
  /// when installed, the backend must route each epoch's commit point
  /// through `gate(epoch, earliest, proceed)` and finish the epoch only
  /// when proceed(true) fires — proceed(false) means the quorum rejected
  /// the commit and the epoch must abort uncommitted.
  using CommitGate = DvdcCoordinator::CommitGate;

  virtual ~CheckpointBackend() = default;

  /// Called with all guests paused at a consistent cut. Must eventually
  /// invoke `done`; guests may be resumed earlier by the backend (COW).
  virtual void checkpoint(checkpoint::Epoch epoch, EpochDone done) = 0;

  /// Read when an epoch commits. If >= 0, its guests resumed this long
  /// after the cut even though the checkpoint committed later (overlapped
  /// capture). If < 0, guests resumed only at commit.
  virtual SimTime early_resume_delay() const = 0;

  /// Abort an in-flight checkpoint (failure interrupted it).
  virtual void abort_checkpoint() = 0;

  /// A node just died: drop whatever backend state lived on it
  /// (checkpoint shards, parity blocks, staged flushes). Called
  /// immediately at kill time — possibly several times per recovery
  /// episode when failures cascade — and strictly before the episode's
  /// next handle_failure().
  virtual void on_node_failure(cluster::NodeId /*victim*/) {}

  /// Recover the `lost` VMs (the union of every VM still missing across
  /// the episode's victims; may be empty if an earlier, aborted attempt
  /// already re-placed them all) and roll the cluster back to the last
  /// committed cut. success == false means unrecoverable data loss.
  virtual void handle_failure(const std::vector<vm::VmId>& lost,
                              RecoveryDone done) = 0;

  /// Abort the in-flight recovery because a cascading failure invalidated
  /// it: its RecoveryDone callback must never fire. Returns true if a
  /// recovery was actually aborted. Backends whose recovery is
  /// instantaneous may keep the default.
  virtual bool abort_recovery() { return false; }

  /// Epochs committed so far.
  virtual checkpoint::Epoch committed_epoch() const = 0;

  /// The job restarted from scratch (data loss): drop stale redundancy
  /// state so the next checkpoint starts a fresh stripe generation.
  virtual void on_job_restart() {}

  /// Install the two-phase commit gate (default: backend has no gated
  /// commit point; the runtime only installs one on backends that do).
  virtual void set_commit_gate(CommitGate gate) { (void)gate; }

  virtual std::string name() const = 0;
};

/// One coordinator decision in the job journal: the control-log entry
/// (see controlplane::ControlEntry), the sim time it was made and the
/// committed-work watermark once it took effect. The watermark is
/// monotone across the journal except at kRollback (a multilevel backend
/// restored an older durable level) and kJobRestart (data loss; the job
/// starts over): committed work is never *silently* lost.
struct JournalEntry {
  SimTime time = 0.0;
  SimTime committed_work = 0.0;
  controlplane::ControlEntry entry;

  bool operator==(const JournalEntry&) const = default;
};

struct JobConfig {
  SimTime total_work = hours(2);
  /// Useful work between checkpoint captures; <= 0 disables checkpointing.
  /// Ignored when `adaptive_interval` is set.
  SimTime interval = minutes(10);
  /// Adaptive interval: when set, each run() builds its own
  /// AdaptiveIntervalPolicy from this config and it overrides `interval`.
  std::optional<AdaptiveConfig> adaptive_interval;
  /// Cluster-wide failure rate (1/MTBF) of the Section V Poisson process
  /// (ClusterFailureInjector); 0 disables it.
  double lambda = 0.0;
  /// Deterministic scripted fault schedule (exact node ids at absolute
  /// sim times — plus repair / link / partition / heal events, see
  /// ScheduledFailureInjector::parse); when non-empty it replaces the
  /// `lambda` process. Per-node, bursty or trace-driven failure regimes
  /// are scripted here: sample their kill times and merge them into
  /// `fail` events.
  std::vector<failure::ScheduledFailure> failure_schedule;
  /// Wire-true failure detection: when set, a HeartbeatDetector runs with
  /// real beat frames crossing the fabric's fault plane toward node 0.
  /// Detection latency is then *measured* (and partitions can produce
  /// false positives with fencing + rejoin) instead of the fixed oracle
  /// detection charge (kDetectionTime in runtime.cpp).
  std::optional<cluster::HeartbeatConfig> heartbeat;
  /// Ambient per-host link fault installed on every host at run start
  /// (the lossy-fabric fuzz regime) and again on each host a scripted
  /// heal clears. Drop/corrupt compose per path: src-host and dst-host
  /// faults are independent trials.
  std::optional<net::LinkFault> ambient_link_fault;
  /// Optional serving plane: client request traffic against the guests
  /// with output-commit egress (released at epoch commit, dropped on
  /// abort/failover). The plane runs on its own Rng stream derived from
  /// the job seed — enabling it leaves the fault schedule and epoch wire
  /// bytes bit-identical.
  std::optional<workload::TrafficConfig> traffic;
  /// Optional replicated control plane: the first `controlplane::kReplicas`
  /// nodes host a raft-style quorum that replicates the job journal
  /// (every coordinator decision: epoch cut/commit/abort, membership,
  /// recovery transitions, plan versions; see JobRunner::journal()) and
  /// turns epoch commit into a two-phase quorum transaction. The leader
  /// can then be killed mid-epoch (see the kill-leader /
  /// partition-leader schedule grammar) and the job continues after
  /// re-election. Runs on its own Rng stream derived from the job seed —
  /// enabling it with zero coordinator faults leaves the fault schedule,
  /// epoch wire bytes and serve.* metrics bit-identical to the
  /// single-coordinator baseline.
  std::optional<controlplane::ControlPlaneConfig> control;
  std::uint64_t seed = 42;
  /// Safety valve on simulator events.
  std::uint64_t max_events = 50'000'000;
};

struct ClusterConfig {
  std::uint32_t nodes = 4;
  std::uint32_t vms_per_node = 3;
  cluster::NodeSpec node_spec{};
  Bytes page_size = kib(4);
  std::size_t pages_per_vm = 128;
  /// Guest page-write rate (writes/sec per VM).
  double write_rate = 500.0;
};

/// Builds per-VM guest workloads from a ClusterConfig (hot/cold model).
WorkloadFactory make_workload_factory(const ClusterConfig& config);

struct RunResult {
  bool finished = false;
  SimTime completion = 0.0;       // wall-clock (simulated) time
  SimTime total_work = 0.0;
  double time_ratio = 0.0;        // completion / total_work (Fig. 5 y-axis)
  std::uint32_t failures = 0;
  std::uint32_t failures_during_recovery = 0;  // struck mid-recovery (killed)
  std::uint32_t recovery_cascades = 0;         // recovery rounds they forced
  std::uint32_t epochs = 0;
  std::uint32_t job_restarts = 0;      // data-loss or pre-checkpoint
  SimTime total_overhead = 0.0;        // guests suspended for checkpoints
  SimTime checkpoint_latency_sum = 0.0;
  SimTime total_recovery = 0.0;
  SimTime lost_work = 0.0;
  Bytes bytes_shipped = 0;
  Bytes peak_state_bytes = 0;          // checkpoint+parity memory highwater
};

/// Owns the whole stack for one experiment run: simulator, cluster,
/// workloads, failure injection and a checkpoint backend.
class JobRunner {
 public:
  using BackendFactory = std::function<std::unique_ptr<CheckpointBackend>(
      simkit::Simulator&, cluster::ClusterManager&, Rng&)>;

  JobRunner(JobConfig job, ClusterConfig cluster_config,
            BackendFactory backend_factory);

  /// Execute the job to completion (or until the event budget runs out).
  RunResult run();

  /// Access after run() for extra assertions in tests.
  cluster::ClusterManager& cluster() { return *cluster_; }
  simkit::Simulator& sim() { return sim_; }
  CheckpointBackend* backend() { return backend_.get(); }
  /// Serving plane, or nullptr when JobConfig::traffic is unset.
  workload::TrafficPlane* traffic() { return traffic_.get(); }
  /// Control plane, or nullptr when JobConfig::control is unset.
  controlplane::ControlPlane* control() { return control_.get(); }
  /// Every coordinator decision of the last run(), in order. Recorded
  /// with or without a control plane; a plane replicates the same
  /// entries (all but kRollback).
  const std::vector<JournalEntry>& journal() const { return journal_; }

 private:
  /// One recovery episode: from the first failure out of healthy state
  /// until the supervisor settles it (success, escalation, or restart).
  /// Cascading failures extend the same episode instead of opening a new
  /// one.
  struct Episode {
    SimTime start = 0.0;
    std::vector<cluster::NodeId> victims;  // every node killed this episode
    std::vector<vm::VmId> lost;            // union of lost VM ids
    std::uint32_t attempts = 0;            // reconstruction rounds started
    bool backend_active = false;           // handle_failure() in flight
    bool restarting = false;               // escalated to a job restart
    std::uint64_t span = 0;                // "recovery" root span id
    simkit::EventId pending = simkit::kInvalidEvent;  // scheduled attempt
    /// The detect and retry windows ahead of `pending`, recorded as
    /// spans once they have run (see record_windows).
    struct Window {
      const char* name;
      SimTime start = 0.0;
      SimTime end = 0.0;
      telemetry::Labels labels;
    };
    std::vector<Window> windows;
    /// Wire mode: victims whose detector timeout has not fired yet. The
    /// continuation runs once the set drains (all victims detected).
    std::unordered_set<cluster::NodeId> awaiting;
    std::function<void()> on_detected;
  };

  void boot_cluster();
  void schedule_segment();
  void on_capture_point();
  /// Entry point for every injected failure. `exact` means `raw_victim`
  /// is an exact node id (the scripted injector); otherwise it is
  /// an index mapped onto the currently-alive set.
  void on_failure_event(cluster::NodeId raw_victim, bool exact);
  /// Stop whichever failure source this run started.
  void stop_failures();
  /// What every node death shares: kill the victim, drop its backend
  /// state, reset its control replica (unless it is a zombie, alive
  /// behind a partition) and record kNodeFailed. Returns the VMs it took.
  std::vector<vm::VmId> strike(cluster::NodeId victim, bool cascade);
  /// A failure struck a healthy cluster: roll the job back to the
  /// committed cut, strike the victim and open a recovery episode.
  /// `detected_after` is set for a suspicion: the detector's timeout
  /// already fired after that much silence, so the attempt starts now.
  void open_episode(cluster::NodeId victim,
                    std::optional<SimTime> detected_after);
  /// A failure struck while an episode was open: strike the victim, abort
  /// any in-flight reconstruction, extend the lost-set, requeue.
  /// `already_detected` marks a suspicion folding in (the detector's
  /// timeout already fired for this victim, nothing to await).
  void on_cascade_failure(cluster::NodeId victim,
                          bool already_detected = false);
  /// Arm the episode's next reconstruction attempt `detect` from now,
  /// plus the backoff a retry owes.
  void schedule_attempt(SimTime detect);
  /// Record the episode's pending windows as far as they ran (whole when
  /// the armed event fires, cut at a cascade's strike) and forget them.
  void record_windows();
  /// Wire mode: fence `victim` with the next epoch's token and run `then`
  /// once every victim's silence has been observed — `detected` means the
  /// detector already timed out on this one.
  void await_detection(cluster::NodeId victim, bool detected,
                       std::function<void()> then);
  /// Run the episode's continuation if no victim is still awaited.
  void run_if_detected();
  /// Scripted non-failure events: repairs and network fault-plane changes.
  void on_fault_event(const failure::ScheduledFailure& ev);
  /// Wire mode: the detector reported `node` after `latency` of silence.
  void on_detected(cluster::NodeId node, SimTime latency);
  /// Wire mode: the detector timed out on a node that is actually alive
  /// (partition / gray link) — declare it dead anyway and fence it; the
  /// mistake surfaces only if a beat gets through later.
  void on_suspected(cluster::NodeId victim, SimTime latency);
  /// Wire mode: a beat arrived from a node declared dead — the node is a
  /// fenced zombie; reconcile (now, or after the current episode).
  void on_false_positive(cluster::NodeId node);
  /// Bring a fenced/dead node back empty: revive, lift the fence, re-arm
  /// its tracker and beat emitter.
  void rejoin_node(cluster::NodeId node);
  void drain_rejoins();
  /// Oracle mode: bring the episode's dead victims back (empty).
  void revive_victims();
  void start_recovery_attempt();
  void on_recovery_settled(const RecoveryStats& rs);
  /// The episode is over: leave degraded mode and resume the job from the
  /// committed watermark.
  void close_episode();
  SimTime retry_backoff(std::uint32_t next_attempt) const;
  void restart_job(const std::vector<vm::VmId>& missing);
  SimTime current_work() const;
  void settle_workloads();
  /// Journal one coordinator decision and, when `replicated` and a plane
  /// is on, replicate it (see replicate()).
  void record(controlplane::ControlEntry::Kind kind, std::uint64_t value,
              std::uint64_t arg = 0, bool replicated = true);
  /// Append a control record through the plane's current leader, queuing
  /// it for the next leader when there is none. No-op without a plane.
  void replicate(const controlplane::ControlEntry& entry);
  void drain_pending_entries();
  /// The protocol's two-phase commit gate: quorum-log kEpochCommit and
  /// fire `proceed` no earlier than `earliest` (see
  /// DvdcCoordinator::set_commit_gate).
  void gate_epoch_commit(checkpoint::Epoch epoch, SimTime earliest,
                         std::function<void(bool)> proceed);
  /// Who the leader-targeted fault events strike right now: the control
  /// plane's leader, or node 0 (the implicit coordinator) without one.
  std::optional<cluster::NodeId> leader_target() const;

  JobConfig job_;
  ClusterConfig cluster_config_;
  BackendFactory backend_factory_;

  simkit::Simulator sim_;
  Rng rng_;
  std::unique_ptr<cluster::ClusterManager> cluster_;
  std::unique_ptr<CheckpointBackend> backend_;
  std::unique_ptr<workload::TrafficPlane> traffic_;
  std::unique_ptr<controlplane::ControlPlane> control_;
  std::vector<JournalEntry> journal_;
  /// Control records appended while leaderless; flushed on election.
  std::vector<controlplane::ControlEntry> pending_entries_;
  /// Placement-map version last logged as a kPlanVersion record.
  std::uint64_t logged_plan_version_ = 0;
  /// The backend routed an epoch through gate_epoch_commit: kEpochCommit
  /// records are then quorum-logged by the gate and only journaled by
  /// on_capture_point.
  bool commit_gate_used_ = false;
  /// Monotone guards: a capture/recovery deferred on await_leader() is
  /// dropped if the job moved on before the election resolved.
  std::uint64_t capture_wait_seq_ = 0;
  std::uint64_t recovery_wait_seq_ = 0;
  /// This run's adaptive interval policy (JobConfig::adaptive_interval).
  std::optional<AdaptiveIntervalPolicy> interval_policy_;
  /// This run's failure source: the scripted schedule, else the Poisson
  /// process (JobConfig::failure_schedule / lambda); at most one is set.
  std::optional<failure::ScheduledFailureInjector> scripted_;
  std::optional<failure::ClusterFailureInjector> poisson_;
  /// Wire-true detection (JobConfig::heartbeat); null = oracle detection.
  std::unique_ptr<cluster::HeartbeatDetector> detector_;
  /// Nodes the cluster declared dead that are physically alive behind a
  /// partition. Their beat emitters keep running; a beat getting through
  /// exposes the false positive.
  std::unordered_set<cluster::NodeId> zombies_;
  /// False positives discovered mid-episode; reconciled when it settles.
  std::vector<cluster::NodeId> pending_rejoins_;

  RunResult result_;
  // Work tracking.
  SimTime current_interval_ = 0.0;
  SimTime committed_work_ = 0.0;
  SimTime work_at_resume_ = 0.0;
  SimTime resume_time_ = 0.0;
  SimTime advanced_work_ = 0.0;  // workload content advanced this far
  bool computing_ = false;
  bool recovering_ = false;
  bool finished_ = false;
  simkit::EventId pending_event_ = simkit::kInvalidEvent;
  Episode episode_;
};

/// The DVDC backend: coordinator + recovery + (re)planning.
class DvdcBackend final : public CheckpointBackend {
 public:
  DvdcBackend(simkit::Simulator& sim, cluster::ClusterManager& cluster,
              ProtocolConfig protocol, RecoveryConfig recovery,
              WorkloadFactory workloads, PlannerConfig planner = {});

  void checkpoint(checkpoint::Epoch epoch, EpochDone done) override;
  SimTime early_resume_delay() const override;
  void abort_checkpoint() override;
  void on_node_failure(cluster::NodeId victim) override;
  void handle_failure(const std::vector<vm::VmId>& lost,
                      RecoveryDone done) override;
  bool abort_recovery() override;
  checkpoint::Epoch committed_epoch() const override {
    return state_.committed_epoch();
  }
  void on_job_restart() override;
  void set_commit_gate(CommitGate gate) override {
    coordinator_.set_commit_gate(std::move(gate));
  }
  std::string name() const override { return "dvdc"; }

  DvdcState& state() { return state_; }
  const PlacedPlan& placed_plan();

 private:
  void ensure_plan();

  cluster::ClusterManager& cluster_;
  ProtocolConfig protocol_config_;
  DvdcState state_;
  DvdcCoordinator coordinator_;
  RecoveryManager recovery_;
  GroupPlanner planner_;
  std::optional<PlacedPlan> placed_;
  /// Pool-map stamp at which `placed_` was last validated (the O(1)
  /// ensure_plan fast path).
  cluster::PlacementMap::Version validated_stamp_ = 0;
  /// The plan whose epoch is currently committed. Recovery must use THIS
  /// plan (its memberships match the committed parity stripes), even if
  /// `placed_` has since been rebuilt for the next epoch.
  std::optional<PlacedPlan> committed_plan_;
};

}  // namespace vdc::core
