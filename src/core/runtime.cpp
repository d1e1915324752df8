#include "core/runtime.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::core {

using Kind = controlplane::ControlEntry::Kind;

namespace {

/// Hot/cold working set of every guest: kHotFraction of the pages take
/// kHotProbability of the writes.
constexpr double kHotFraction = 0.1;
constexpr double kHotProbability = 0.9;

/// Oracle detection (no heartbeat detector) charges this delay before
/// recovery starts: the heartbeat config's expected latency, so the
/// charged and measured paths agree (0.5 s with stock timing).
constexpr SimTime kDetectionTime =
    cluster::HeartbeatConfig{}.expected_detection_latency();
/// Recovery supervisor: at most this many reconstruction attempts per
/// episode (first attempt + cascaded retries) before escalating to a job
/// restart.
constexpr std::uint32_t kMaxRecoveryAttempts = 5;
/// Sim-time backoff added before retry attempt N (N >= 2):
/// kRecoveryBackoff * 2^(N-2), on top of the detection delay.
constexpr SimTime kRecoveryBackoff = 1.0;

}  // namespace

WorkloadFactory make_workload_factory(const ClusterConfig& config) {
  return [config](vm::VmId) -> std::unique_ptr<vm::Workload> {
    if (config.write_rate <= 0.0)
      return std::make_unique<vm::IdleWorkload>();
    return std::make_unique<vm::HotColdWorkload>(
        config.write_rate, kHotFraction, kHotProbability);
  };
}

JobRunner::JobRunner(JobConfig job, ClusterConfig cluster_config,
                     BackendFactory backend_factory)
    : job_(job),
      cluster_config_(cluster_config),
      backend_factory_(std::move(backend_factory)),
      rng_(job.seed) {
  VDC_REQUIRE(job.total_work > 0.0, "job needs positive work");
  VDC_REQUIRE(backend_factory_ != nullptr, "backend factory required");
}

void JobRunner::boot_cluster() {
  cluster_ = std::make_unique<cluster::ClusterManager>(sim_, rng_.fork());
  auto workloads = make_workload_factory(cluster_config_);
  for (std::uint32_t n = 0; n < cluster_config_.nodes; ++n)
    cluster_->add_node(cluster_config_.node_spec);
  for (std::uint32_t n = 0; n < cluster_config_.nodes; ++n) {
    for (std::uint32_t v = 0; v < cluster_config_.vms_per_node; ++v) {
      cluster_->boot_vm(n, cluster_config_.page_size,
                        cluster_config_.pages_per_vm, workloads(0));
    }
  }
}

SimTime JobRunner::current_work() const {
  if (!computing_) return work_at_resume_;
  return work_at_resume_ + (sim_.now() - resume_time_);
}

void JobRunner::settle_workloads() {
  const SimTime w = current_work();
  const SimTime dt = w - advanced_work_;
  if (dt > 0.0) {
    cluster_->advance_workloads(dt);
    advanced_work_ = w;
  }
}

RunResult JobRunner::run() {
  detector_.reset();  // must not outlive a previous run's cluster
  zombies_.clear();
  pending_rejoins_.clear();
  boot_cluster();
  backend_ = backend_factory_(sim_, *cluster_, rng_);

  if (job_.ambient_link_fault.has_value()) {
    auto& faults = cluster_->fabric().faults();
    for (std::uint32_t n = 0; n < cluster_config_.nodes; ++n)
      faults.set_host_fault(cluster_->node(n).host(),
                            *job_.ambient_link_fault);
  }
  traffic_.reset();
  if (job_.traffic.has_value()) {
    // The plane's Rng is built directly from (seed, salt) — NOT forked
    // from rng_ — so the cluster/backend/injector fork chain is identical
    // with traffic on or off (the bit-identity satellite invariant). The
    // client host is added after every node host, so node host ids are
    // unchanged too.
    Rng traffic_rng(job_.seed ^
                    (workload::kTrafficSalt * 0x9e3779b97f4a7c15ull) ^
                    0x53525645ull /* "SRVE" */);
    traffic_ = std::make_unique<workload::TrafficPlane>(
        sim_, *cluster_, *job_.traffic, traffic_rng);
    traffic_->start();
  }
  control_.reset();
  journal_.clear();
  pending_entries_.clear();
  logged_plan_version_ = 0;
  commit_gate_used_ = false;
  capture_wait_seq_ = 0;
  recovery_wait_seq_ = 0;
  if (job_.control.has_value()) {
    // Same independent-stream discipline as the serving plane: enabling
    // the control plane must leave the cluster/backend/injector fork chain
    // untouched (the zero-coordinator-fault bit-identity invariant).
    Rng control_rng(job_.seed ^ 0x4354524cull /* "CTRL" */);
    control_ = std::make_unique<controlplane::ControlPlane>(sim_, *cluster_,
                                                            control_rng);
    // A zombie behind a partition keeps its replica running — that is the
    // deposed-leader scenario the fencing integration exists for.
    control_->set_live_predicate([this](controlplane::NodeId id) {
      return cluster_->node(id).alive() || zombies_.count(id) != 0;
    });
    control_->set_on_leader_change(
        [this](controlplane::NodeId, controlplane::Term) {
          drain_pending_entries();
        });
    control_->start();
    // Epoch commit becomes a two-phase quorum transaction on backends
    // with a gated commit point (DVDC); others keep the default no-op.
    backend_->set_commit_gate(
        [this](checkpoint::Epoch epoch, SimTime earliest,
               std::function<void(bool)> proceed) {
          gate_epoch_commit(epoch, earliest, std::move(proceed));
        });
  }
  if (job_.heartbeat.has_value()) {
    // Observer node 0 stands in for the coordinator's vantage point; a
    // zombie counts as live so its beats keep probing the partition.
    detector_ = std::make_unique<cluster::HeartbeatDetector>(
        sim_, *cluster_, cluster_->fabric(), 0,
        [this](cluster::NodeId id) {
          return cluster_->node(id).alive() || zombies_.count(id) != 0;
        },
        *job_.heartbeat);
    detector_->set_on_false_positive(
        [this](cluster::NodeId id) { on_false_positive(id); });
    detector_->start([this](cluster::NodeId id, SimTime latency) {
      on_detected(id, latency);
    });
  }

  result_ = RunResult{};
  result_.total_work = job_.total_work;
  current_interval_ = job_.interval_policy
                          ? job_.interval_policy->initial_interval()
                          : job_.interval;
  committed_work_ = 0.0;
  work_at_resume_ = 0.0;
  resume_time_ = sim_.now();
  advanced_work_ = 0.0;
  computing_ = true;
  recovering_ = false;
  finished_ = false;

  // Failure source: the scripted schedule, else the Poisson process.
  if (!job_.failure_schedule.empty()) {
    auto scripted = std::make_unique<failure::ScheduledFailureInjector>(
        sim_, job_.failure_schedule);
    scripted->set_on_event([this](const failure::ScheduledFailure& ev) {
      on_fault_event(ev);
    });
    injector_ = std::move(scripted);
  } else if (job_.lambda > 0.0) {
    injector_ = std::make_unique<failure::ClusterFailureInjector>(
        sim_, rng_.fork(),
        std::make_shared<failure::ExponentialTtf>(job_.lambda),
        cluster_config_.nodes);
  }
  if (injector_) {
    const bool exact = injector_->exact_targets();
    injector_->start([this, exact](failure::NodeId victim) {
      on_failure_event(victim, exact);
    });
  }

  schedule_segment();

  while (!finished_) {
    if (!sim_.step()) break;
    if (sim_.executed() > job_.max_events) {
      VDC_WARN("runtime", "event budget exhausted; giving up");
      break;
    }
  }
  if (injector_) injector_->stop();
  if (detector_) detector_->stop();
  if (control_) control_->stop();
  if (traffic_) traffic_->stop();

  result_.finished = finished_;
  if (finished_) {
    result_.completion = sim_.now();
    result_.time_ratio = result_.completion / job_.total_work;
  }

  // RunResult is a façade over the run's metrics registry: every counter
  // below was written where the event happened, the struct is derived
  // here once at the end.
  const auto& metrics = sim_.telemetry().metrics();
  result_.epochs = static_cast<std::uint32_t>(metrics.value("job.epochs"));
  result_.failures =
      static_cast<std::uint32_t>(metrics.value("job.failures"));
  result_.failures_during_recovery = static_cast<std::uint32_t>(
      metrics.value("job.failures_during_recovery"));
  result_.recovery_cascades =
      static_cast<std::uint32_t>(metrics.value("recovery.cascades"));
  result_.job_restarts =
      static_cast<std::uint32_t>(metrics.value("job.restarts"));
  result_.total_overhead = metrics.value("job.overhead_s");
  result_.checkpoint_latency_sum = metrics.value("job.latency_s");
  result_.total_recovery = metrics.value("job.recovery_s");
  result_.lost_work = metrics.value("job.lost_work_s");
  result_.bytes_shipped =
      static_cast<Bytes>(metrics.value("job.bytes_shipped"));
  result_.peak_state_bytes =
      static_cast<Bytes>(metrics.peak("dvdc.state_bytes"));
  return result_;
}

void JobRunner::schedule_segment() {
  VDC_ASSERT(computing_ && !recovering_);
  // A capture deferred on await_leader() belongs to the segment that was
  // running when it deferred; a new segment supersedes it.
  ++capture_wait_seq_;
  if (pending_event_ != simkit::kInvalidEvent) sim_.cancel(pending_event_);

  const SimTime w = current_work();
  const bool checkpointing = current_interval_ > 0.0;
  const SimTime target =
      checkpointing
          ? std::min(committed_work_ + current_interval_, job_.total_work)
          : job_.total_work;

  if (!checkpointing || target >= job_.total_work - 1e-12) {
    // Final stretch: run to completion, no trailing checkpoint needed.
    const SimTime remaining = std::max(0.0, job_.total_work - w);
    pending_event_ = sim_.after(remaining, [this] {
      pending_event_ = simkit::kInvalidEvent;
      settle_workloads();
      finished_ = true;
      if (injector_) injector_->stop();
    });
    return;
  }

  const SimTime until_capture = std::max(0.0, target - w);
  pending_event_ = sim_.after(until_capture, [this] {
    pending_event_ = simkit::kInvalidEvent;
    on_capture_point();
  });
}

void JobRunner::on_capture_point() {
  if (control_ && !control_->leader().has_value()) {
    // Leaderless: a cut decided now could not be quorum-logged, so the
    // capture waits for the election. Guests keep computing meanwhile —
    // the cut just lands later. The seq guard drops the waiter if a
    // failure/recovery/new segment moved the job on first.
    const std::uint64_t seq = capture_wait_seq_;
    control_->await_leader([this, seq](controlplane::NodeId) {
      if (finished_ || recovering_ || !computing_ ||
          seq != capture_wait_seq_)
        return;
      on_capture_point();
    });
    return;
  }
  settle_workloads();
  work_at_resume_ = current_work();
  computing_ = false;
  for (cluster::NodeId nid : cluster_->alive_nodes())
    cluster_->node(nid).hypervisor().pause_all();

  const SimTime cut_time = sim_.now();
  const SimTime cut_work = work_at_resume_;
  const checkpoint::Epoch epoch = backend_->committed_epoch() + 1;

  const std::uint64_t pv = cluster_->placement_map().version();
  if (pv != logged_plan_version_) {
    logged_plan_version_ = pv;
    record(Kind::kPlanVersion, pv);
  }
  record(Kind::kEpochCut, epoch);

  backend_->checkpoint(epoch, [this, cut_time, cut_work, epoch](
                                  const EpochStats& stats) {
    auto& metrics = sim_.telemetry().metrics();
    if (!stats.committed) {
      // The epoch died on the wire (an exchange stream exhausted its
      // retransmission budget/deadline). The previous committed cut
      // stands; resume the guests and try again. Work done since the cut
      // is simply uncheckpointed, not lost.
      metrics.add("job.epochs_failed", 1.0);
      record(Kind::kEpochAbort, epoch);
      // Output commit: egress buffered for this epoch would have exposed
      // state that never became durable — drop it; clients retry.
      if (traffic_) traffic_->on_epoch_abort();
      for (cluster::NodeId nid : cluster_->alive_nodes())
        cluster_->node(nid).hypervisor().resume_all();
      computing_ = true;
      resume_time_ = sim_.now();
      schedule_segment();
      return;
    }
    metrics.add("job.epochs", 1.0);
    committed_work_ = cut_work;
    // Gated backends quorum-logged kEpochCommit inside gate_epoch_commit;
    // for the rest the commit record is replicated here (view apply is
    // idempotent either way).
    record(Kind::kEpochCommit, epoch, 0, !commit_gate_used_);
    // Sample the epoch window's held-egress peak before the commit
    // releases the buffer and resets the window.
    const Bytes held_window = traffic_ ? traffic_->held_peak_window() : 0;
    // Output commit: the cut is durable, buffered egress may now reach
    // clients.
    if (traffic_) traffic_->on_epoch_commit(epoch);
    metrics.add("job.overhead_s", stats.overhead);
    metrics.add("job.latency_s", stats.latency);
    metrics.add("job.bytes_shipped",
                static_cast<double>(stats.bytes_shipped));
    if (job_.interval_policy) {
      EpochStats observed = stats;
      observed.held_egress_peak = held_window;
      current_interval_ = job_.interval_policy->next_interval(observed);
    }

    // Where did the guests actually resume?
    const SimTime early = backend_->early_resume_delay();
    resume_time_ = early >= 0.0 ? cut_time + early : sim_.now();
    VDC_ASSERT(resume_time_ <= sim_.now() + 1e-9);
    computing_ = true;
    schedule_segment();
  });
}

void JobRunner::on_failure_event(cluster::NodeId raw_victim, bool exact) {
  if (finished_) return;
  auto& metrics = sim_.telemetry().metrics();

  cluster::NodeId victim = 0;
  if (exact) {
    // The scripted source names real node ids; a strike on a node
    // that is already down (e.g. scheduled inside its own detect window)
    // fails nothing new.
    if (raw_victim >= cluster_->node_count() ||
        !cluster_->node(raw_victim).alive()) {
      // ...except when the "down" node is a zombie: the partitioned-but-
      // running hardware really dies now, so its beats stop for good
      // (and its control-plane replica, if any, loses its volatile state).
      if (raw_victim < cluster_->node_count() &&
          zombies_.erase(raw_victim) != 0 && control_)
        control_->on_node_death(raw_victim);
      metrics.add("job.failures_skipped", 1.0);
      return;
    }
    victim = raw_victim;
  } else {
    const auto alive = cluster_->alive_nodes();
    if (alive.empty()) {
      metrics.add("job.failures_skipped", 1.0);
      return;
    }
    victim = alive[raw_victim % alive.size()];
  }
  metrics.add("job.failures", 1.0);
  if (recovering_)
    on_cascade_failure(victim);
  else
    open_episode(victim, std::nullopt);
}

std::vector<vm::VmId> JobRunner::strike(cluster::NodeId victim,
                                        bool cascade) {
  std::vector<vm::VmId> lost = cluster_->node(victim).hypervisor().vm_ids();
  cluster_->kill_node(victim);
  backend_->on_node_failure(victim);
  // Replica hardware died: volatile raft state goes with it. This runs
  // BEFORE the record so one about the dead leader routes through (or
  // queues for) its successor, never through the corpse. A suspected
  // (zombie) victim is physically alive behind the partition: its replica
  // keeps running, and fencing keeps a deposed zombie leader out of the
  // quorum.
  if (control_ && zombies_.count(victim) == 0)
    control_->on_node_death(victim);
  record(Kind::kNodeFailed, victim, cascade ? 1 : 0);
  return lost;
}

void JobRunner::open_episode(cluster::NodeId victim,
                             std::optional<SimTime> detected_after) {
  auto& tel = sim_.telemetry();
  // Work since the last committed cut is lost.
  const SimTime w = current_work();
  tel.metrics().add("job.lost_work_s", std::max(0.0, w - committed_work_));
  computing_ = false;
  work_at_resume_ = committed_work_;
  if (pending_event_ != simkit::kInvalidEvent) {
    sim_.cancel(pending_event_);
    pending_event_ = simkit::kInvalidEvent;
  }
  backend_->abort_checkpoint();

  const std::vector<vm::VmId> lost = strike(victim, /*cascade=*/false);
  if (traffic_) {
    // The cluster will roll back to the committed cut: uncommitted egress
    // is dropped before any client can see it, and the victim's service
    // queue dies with the node.
    traffic_->on_failover_begin();
    traffic_->on_node_failure(lost);
  }
  recovering_ = true;
  cluster_->set_degraded(true);
  record(Kind::kRecoveryBegin, victim);

  episode_ = Episode{};
  episode_.start = sim_.now();
  episode_.victims.push_back(victim);
  episode_.lost = lost;

  // Root span for the whole recovery episode; the backend's manager nests
  // reconstruct/replace/rollback under this root while it stays open.
  const telemetry::Labels victim_labels{{"victim", std::to_string(victim)}};
  episode_.span = tel.begin_span("recovery", victim_labels);

  if (detector_) {
    // Wire-true detection: the victim just falls silent. Recovery arms
    // when the detector times out on it; the detect span is recorded then
    // with the latency actually measured (on_detected). A suspicion IS
    // that timeout, so its attempt starts now.
    if (detected_after)
      tel.record_span("recovery.detect", sim_.now() - *detected_after,
                      sim_.now(), victim_labels, episode_.span);
    await_detection(victim, detected_after.has_value(),
                    [this] { start_recovery_attempt(); });
    return;
  }
  // Oracle detection: charge the fixed delay (a first attempt owes no
  // backoff).
  episode_.windows.push_back({"recovery.detect", sim_.now(),
                              sim_.now() + kDetectionTime, victim_labels});
  schedule_attempt(kDetectionTime);
}

void JobRunner::on_cascade_failure(cluster::NodeId victim,
                                   bool already_detected) {
  auto& tel = sim_.telemetry();
  auto& metrics = tel.metrics();
  metrics.add("job.failures_during_recovery", 1.0);
  metrics.add("recovery.cascades", 1.0);

  const std::vector<vm::VmId> lost = strike(victim, /*cascade=*/true);
  ++recovery_wait_seq_;  // a deferred attempt is stale against the new victim
  if (traffic_) traffic_->on_node_failure(lost);
  if (std::find(episode_.victims.begin(), episode_.victims.end(), victim) ==
      episode_.victims.end())
    episode_.victims.push_back(victim);
  // Union: a re-struck node may host VMs already in the lost set
  // (re-placed by the aborted attempt).
  for (vm::VmId vmid : lost)
    if (std::find(episode_.lost.begin(), episode_.lost.end(), vmid) ==
        episode_.lost.end())
      episode_.lost.push_back(vmid);

  // Whatever the episode had in flight is now stale: an armed attempt is
  // descheduled (its windows end at this strike), an active
  // reconstruction aborted (its callback must not fire against the
  // extended lost-set).
  if (episode_.pending != simkit::kInvalidEvent) {
    sim_.cancel(episode_.pending);
    episode_.pending = simkit::kInvalidEvent;
  }
  record_windows();
  if (episode_.backend_active) {
    backend_->abort_recovery();
    episode_.backend_active = false;
  }

  if (detector_) {
    // Wire mode: a fresh victim must time out on the detector before the
    // episode can move again; a suspicion folding in already has.
    await_detection(victim, already_detected, [this] {
      if (episode_.restarting)
        restart_job(episode_.lost);
      else
        schedule_attempt(0.0);
    });
    return;
  }

  episode_.windows.push_back({"recovery.detect", sim_.now(),
                              sim_.now() + kDetectionTime,
                              {{"victim", std::to_string(victim)}}});
  if (!episode_.restarting) {
    schedule_attempt(kDetectionTime);
    return;
  }
  // The episode already escalated to a job restart; fold the new victim
  // in and restart again once its failure is detected.
  episode_.pending = sim_.after(kDetectionTime, [this] {
    episode_.pending = simkit::kInvalidEvent;
    record_windows();
    restart_job(episode_.lost);
  });
}

void JobRunner::schedule_attempt(SimTime detect) {
  const SimTime backoff = retry_backoff(episode_.attempts + 1);
  if (backoff > 0.0)
    episode_.windows.push_back(
        {"recovery.retry", sim_.now() + detect, sim_.now() + detect + backoff,
         {{"attempt", std::to_string(episode_.attempts + 1)}}});
  episode_.pending = sim_.after(detect + backoff, [this] {
    episode_.pending = simkit::kInvalidEvent;
    record_windows();
    start_recovery_attempt();
  });
}

void JobRunner::record_windows() {
  const SimTime now = sim_.now();
  for (Episode::Window& w : episode_.windows)
    if (w.start < now)  // a window that had not begun never ran
      sim_.telemetry().record_span(w.name, w.start, std::min(w.end, now),
                                   std::move(w.labels), episode_.span);
  episode_.windows.clear();
}

void JobRunner::await_detection(cluster::NodeId victim, bool detected,
                                std::function<void()> then) {
  const std::uint64_t token = backend_->committed_epoch() + 1;
  cluster_->fence_node(victim, token);
  record(Kind::kNodeFenced, victim, token);
  if (!detected) {
    detector_->note_failure(victim, sim_.now());
    episode_.awaiting.insert(victim);
  }
  episode_.on_detected = std::move(then);
  run_if_detected();
}

void JobRunner::run_if_detected() {
  if (!episode_.awaiting.empty() || !episode_.on_detected) return;
  auto cont = std::move(episode_.on_detected);
  episode_.on_detected = nullptr;
  cont();
}

void JobRunner::on_detected(cluster::NodeId node, SimTime latency) {
  if (finished_) return;
  if (recovering_ && episode_.awaiting.count(node) != 0) {
    // A victim's silence has now actually been observed; the detect span
    // covers the measured window, not a fixed charge.
    sim_.telemetry().record_span(
        "recovery.detect", sim_.now() - latency, sim_.now(),
        {{"victim", std::to_string(node)}}, episode_.span);
    episode_.awaiting.erase(node);
    run_if_detected();
    return;
  }
  // Unawaited detection of a live node: the fabric ate its beats — a
  // false positive in the making (partition / gray link). A stale
  // detection of an already-handled dead node is ignored.
  if (node < cluster_->node_count() && cluster_->node(node).alive())
    on_suspected(node, latency);
}

void JobRunner::on_suspected(cluster::NodeId victim, SimTime latency) {
  sim_.telemetry().metrics().add("job.suspected_failures", 1.0);
  VDC_INFO("runtime", "node ", victim,
           " suspected failed (no beats); declaring it dead");
  // The cluster acts on its belief: the unreachable node is declared
  // dead, its VMs are written off (to be recovered elsewhere), and the
  // node is fenced so any stale write it later attempts is rejected. If
  // it was alive all along, a beat getting through exposes the mistake.
  zombies_.insert(victim);
  if (recovering_)
    on_cascade_failure(victim, /*already_detected=*/true);
  else
    open_episode(victim, latency);
}

void JobRunner::on_false_positive(cluster::NodeId node) {
  if (finished_ || zombies_.count(node) == 0) return;
  // The zombie resurfaced and immediately tries to resume its old role —
  // starting with its stale checkpoint/parity writes. Its fence token is
  // stale, so the writes are rejected; only then may it rejoin, empty.
  sim_.telemetry().metrics().add("recovery.fenced", 1.0);
  VDC_INFO("runtime", "node ", node,
           " reappeared (false-positive detection); stale writes fenced");
  if (recovering_) {
    // Mid-episode: reconcile once the episode settles, so the rejoin
    // can't race the reconstruction that replaced this node's VMs.
    pending_rejoins_.push_back(node);
    return;
  }
  rejoin_node(node);
}

void JobRunner::rejoin_node(cluster::NodeId node) {
  // `alive()` is the cluster's BELIEF: a suspected zombie was kill_node'd
  // on suspicion, so it reads dead here even though the hardware (and its
  // control replica) kept running the whole time.
  const bool was_zombie = zombies_.erase(node) != 0;
  const bool was_dead = !cluster_->node(node).alive();
  if (was_dead) cluster_->revive_node(node);
  cluster_->lift_fence(node);
  if (detector_) detector_->note_repair(node);
  // A physically revived replica rejoins the quorum empty (unsynced); a
  // zombie's replica never died — lifting the fence is all it needs.
  // Wiping a zombie here can strand the quorum: wipe two of three
  // replicas with no leader seated and nobody can ever be elected.
  if (control_ && was_dead && !was_zombie) control_->on_node_rejoin(node);
  record(Kind::kNodeRejoined, node);
}

void JobRunner::drain_rejoins() {
  if (pending_rejoins_.empty()) return;
  auto pending = std::move(pending_rejoins_);
  pending_rejoins_.clear();
  for (cluster::NodeId node : pending)
    if (zombies_.count(node) != 0) rejoin_node(node);
}

void JobRunner::revive_victims() {
  // Oracle mode keeps the constant-cluster-size assumption behind the
  // Section V model's flat T_r: the failed machines are rebooted/replaced
  // by the time reconstruction starts, so recovery can re-place the lost
  // VMs onto them. With wire-true detection a dead node stays down until
  // a scripted repair or a false-positive rejoin brings it back — reviving
  // it here would restart its heartbeats and fake a resurrection.
  if (detector_) return;
  for (cluster::NodeId nid : episode_.victims)
    if (!cluster_->node(nid).alive()) {
      cluster_->revive_node(nid);
      if (control_) control_->on_node_rejoin(nid);
      record(Kind::kNodeRejoined, nid);
    }
}

void JobRunner::on_fault_event(const failure::ScheduledFailure& ev) {
  using Fault = failure::ScheduledFailure::Kind;
  if (finished_) return;
  switch (ev.kind) {
    case Fault::kFail:
      break;  // delivered through the failure callback, not here
    case Fault::kRepair:
      if (ev.node >= cluster_->node_count()) return;
      if (!cluster_->node(ev.node).alive() || zombies_.count(ev.node) != 0)
        rejoin_node(ev.node);
      break;
    case Fault::kLink: {
      if (ev.node >= cluster_->node_count()) return;
      net::LinkFault fault;
      fault.drop = ev.drop;
      fault.corrupt = ev.corrupt;
      fault.extra_latency = ev.latency;
      fault.jitter = ev.jitter;
      fault.rate_factor = ev.rate;
      auto& faults = cluster_->fabric().faults();
      const net::HostId src = cluster_->node(ev.node).host();
      if (ev.peer == failure::ScheduledFailure::kAllNodes) {
        faults.set_host_fault(src, fault);
        if (fault.rate_factor != 1.0)
          cluster_->fabric().set_host_rate_factor(src, fault.rate_factor);
      } else {
        if (ev.peer >= cluster_->node_count()) return;
        faults.set_link_fault(src, cluster_->node(ev.peer).host(), fault);
      }
      break;
    }
    case Fault::kPartition:
      if (ev.node >= cluster_->node_count()) return;
      cluster_->fabric().faults().set_partition_group(
          cluster_->node(ev.node).host(), ev.group);
      break;
    case Fault::kHeal: {
      // A heal ends the scripted faults; the ambient regime stays.
      auto& faults = cluster_->fabric().faults();
      const auto restore = [&](net::HostId host) {
        cluster_->fabric().set_host_rate_factor(host, 1.0);
        if (job_.ambient_link_fault)
          faults.set_host_fault(host, *job_.ambient_link_fault);
      };
      if (ev.node == failure::ScheduledFailure::kAllNodes) {
        faults.heal_all();
        for (std::uint32_t n = 0; n < cluster_config_.nodes; ++n)
          restore(cluster_->node(n).host());
      } else {
        if (ev.node >= cluster_->node_count()) return;
        const net::HostId host = cluster_->node(ev.node).host();
        faults.heal(host);
        restore(host);
      }
      break;
    }
    case Fault::kKillLeader: {
      // The victim is resolved at fire time: whoever leads the control
      // plane now (node 0, the implicit coordinator, without one). During
      // an election gap there is no leader to kill — the strike fizzles.
      const auto target = leader_target();
      if (!target.has_value() || *target >= cluster_->node_count()) {
        sim_.telemetry().metrics().add("job.failures_skipped", 1.0);
        return;
      }
      on_failure_event(*target, /*exact=*/true);
      break;
    }
    case Fault::kPartitionLeader: {
      const auto target = leader_target();
      if (!target.has_value() || *target >= cluster_->node_count()) return;
      cluster_->fabric().faults().set_partition_group(
          cluster_->node(*target).host(), ev.group);
      break;
    }
  }
}

SimTime JobRunner::retry_backoff(std::uint32_t next_attempt) const {
  if (next_attempt <= 1) return 0.0;
  return kRecoveryBackoff *
         std::ldexp(1.0, static_cast<int>(next_attempt) - 2);
}

void JobRunner::start_recovery_attempt() {
  VDC_ASSERT(recovering_ && !episode_.backend_active);
  auto& metrics = sim_.telemetry().metrics();
  if (episode_.attempts >= kMaxRecoveryAttempts) {
    // Retry budget exhausted: stop reconstructing, escalate to a restart.
    metrics.add("recovery.failures", 1.0, {{"reason", "attempt_budget"}});
    RecoveryStats rs;
    rs.success = false;
    rs.reason = "recovery attempt budget exhausted (" +
                std::to_string(kMaxRecoveryAttempts) + " attempts)";
    on_recovery_settled(rs);
    return;
  }
  // Revive BEFORE the leader gate below: the quorum may need these
  // replicas back before it can elect the leader the attempt waits on.
  revive_victims();

  if (control_ && !control_->leader().has_value() &&
      control_->quorum_stranded()) {
    // Two replicas lost in one episode come back unsynced and abstain, so
    // no leader can ever be elected: the attempt fails, and the restart
    // re-forms the plane. The survivor cannot seed the revived replicas:
    // a committed record may exist only on the two that died.
    metrics.add("recovery.failures", 1.0, {{"reason", "control_quorum"}});
    RecoveryStats rs;
    rs.success = false;
    rs.reason = "control quorum lost";
    on_recovery_settled(rs);
    return;
  }
  if (control_ && !control_->leader().has_value()) {
    // Leaderless: recovery decisions must be quorum-logged to be
    // replayable on takeover, so the attempt waits for the election. The
    // seq guard drops the waiter if a cascade/settle moved the episode on.
    const std::uint64_t seq = ++recovery_wait_seq_;
    control_->await_leader([this, seq](controlplane::NodeId) {
      if (finished_ || !recovering_ || episode_.backend_active ||
          episode_.pending != simkit::kInvalidEvent ||
          seq != recovery_wait_seq_)
        return;
      start_recovery_attempt();
    });
    return;
  }

  ++episode_.attempts;
  metrics.add("recovery.attempts", 1.0);

  // Only what is still missing: an aborted earlier attempt may already
  // have re-placed some of the episode's lost VMs (exact committed-epoch
  // state, so they stay).
  std::vector<vm::VmId> missing;
  for (vm::VmId vmid : episode_.lost)
    if (!cluster_->locate(vmid).has_value()) missing.push_back(vmid);

  episode_.backend_active = true;
  backend_->handle_failure(missing, [this](const RecoveryStats& rs) {
    episode_.backend_active = false;
    on_recovery_settled(rs);
  });
}

void JobRunner::on_recovery_settled(const RecoveryStats& rs) {
  auto& tel = sim_.telemetry();
  auto& metrics = tel.metrics();
  ++recovery_wait_seq_;  // any deferred attempt is now stale
  record(Kind::kRecoverySettled, episode_.attempts, rs.success ? 1 : 0);
  tel.end_span(episode_.span);
  episode_.span = telemetry::kNoSpan;
  metrics.add("job.recovery_s", sim_.now() - episode_.start);
  if (!rs.success) {
    metrics.add("job.restarts", 1.0);
    VDC_INFO("runtime", "job restart at t=", sim_.now(), ": ", rs.reason);
    episode_.restarting = true;
    restart_job(episode_.lost);
    return;
  }
  if (rs.epochs_rolled_back > 0) {
    // A multilevel backend restored an older durable level: roll the
    // work watermark back by that many intervals (exact for fixed
    // intervals, the policy's current value otherwise). No replica's
    // view tracks the watermark, so the record stays journal-only.
    const SimTime regress =
        rs.epochs_rolled_back *
        (current_interval_ > 0 ? current_interval_ : job_.interval);
    metrics.add("job.lost_work_s", std::min(committed_work_, regress));
    committed_work_ = std::max(0.0, committed_work_ - regress);
    record(Kind::kRollback, rs.epochs_rolled_back, 0, /*replicated=*/false);
  }
  close_episode();
}

void JobRunner::close_episode() {
  recovering_ = false;
  cluster_->set_degraded(false);
  drain_rejoins();
  // An attempt that settled trivially (everything already re-placed by
  // an aborted predecessor) never went through the manager's resume;
  // resume_all is idempotent for guests already running.
  for (cluster::NodeId nid : cluster_->alive_nodes())
    cluster_->node(nid).hypervisor().resume_all();
  // Serving resumes; client-visible downtime keeps running until the
  // first post-recovery response actually reaches a client.
  if (traffic_) traffic_->on_failover_end();
  computing_ = true;
  resume_time_ = sim_.now();
  work_at_resume_ = committed_work_;
  advanced_work_ = committed_work_;
  schedule_segment();
}

void JobRunner::restart_job(const std::vector<vm::VmId>& missing) {
  // Unrecoverable: re-create whatever is gone with fresh images and start
  // the job over. Victims that never made it through a reconstruction
  // attempt (give-up path) are still down; in oracle mode bring the
  // hardware back first (wire mode leaves them down — see
  // revive_victims).
  ++recovery_wait_seq_;  // any deferred attempt is now stale
  revive_victims();
  // A plane that can no longer elect starts over with the job.
  if (control_ && !control_->leader().has_value() &&
      control_->quorum_stranded())
    control_->reform();
  committed_work_ = 0.0;
  work_at_resume_ = 0.0;
  advanced_work_ = 0.0;
  record(Kind::kJobRestart, 0);
  auto workloads = make_workload_factory(cluster_config_);
  for (vm::VmId vmid : missing) {
    if (cluster_->locate(vmid).has_value()) continue;
    const cluster::NodeId target = cluster_->least_loaded_node();
    auto machine = std::make_unique<vm::VirtualMachine>(
        vmid, "vm" + std::to_string(vmid), cluster_config_.page_size,
        cluster_config_.pages_per_vm, workloads(vmid));
    Rng boot = rng_.fork();
    machine->image().fill_random(boot);
    machine->image().clear_dirty();
    machine->pause();
    cluster_->place(std::move(machine), target);
  }
  backend_->on_job_restart();
  // Epoch numbering starts over with the fresh job; any held egress is
  // from an execution that no longer exists.
  if (traffic_) traffic_->on_restart();

  // `recovering_` stays up through the restart window so a failure in it
  // routes through the cascade path (cancel this event, fold the victim
  // in, restart again).
  episode_.pending = sim_.after(job_.restart_time, [this] {
    episode_.pending = simkit::kInvalidEvent;
    close_episode();
  });
}

void JobRunner::record(Kind kind, std::uint64_t value, std::uint64_t arg,
                       bool replicated) {
  const controlplane::ControlEntry entry{kind, value, arg};
  journal_.push_back({sim_.now(), committed_work_, entry});
  if (replicated) replicate(entry);
}

void JobRunner::replicate(const controlplane::ControlEntry& entry) {
  if (!control_) return;
  // Self-healing append: a record that lands in a leader's log but never
  // commits there (the leader dies, or a deposed zombie held it) is
  // re-proposed through the successor — in original order, because waiter
  // callbacks fail in append order at the leader change. Leaderless
  // appends queue for the next election (drain_pending_entries).
  const bool appended = control_->append(
      entry, [this, entry](bool committed) {
        if (!committed) replicate(entry);
      });
  if (!appended) pending_entries_.push_back(entry);
}

void JobRunner::drain_pending_entries() {
  std::vector<controlplane::ControlEntry> queued;
  queued.swap(pending_entries_);
  for (const auto& entry : queued) replicate(entry);
}

void JobRunner::gate_epoch_commit(checkpoint::Epoch epoch, SimTime earliest,
                                  std::function<void(bool)> proceed) {
  VDC_ASSERT(control_ != nullptr);
  commit_gate_used_ = true;
  // Two-phase commit: the epoch finishes only when (a) the quorum has the
  // kEpochCommit record AND (b) the protocol's own commit point
  // (`earliest`) has passed. On a clean fabric the quorum round-trip
  // beats commit_latency, so the gate adds no time — gated and ungated
  // runs commit at the same instant (the bit-identity invariant). A
  // quorum rejection (leader killed/deposed before the record committed)
  // aborts the epoch; the runtime retries it wholesale, and the view's
  // idempotent apply absorbs a re-proposal of an orphaned commit record.
  struct Gate {
    bool quorum = false;
    bool due = false;
    bool done = false;
    std::function<void(bool)> proceed;
  };
  auto gate = std::make_shared<Gate>();
  gate->proceed = std::move(proceed);
  auto resolve = [gate](bool ok) {
    if (gate->done) return;
    if (!ok) {
      gate->done = true;
      gate->proceed(false);
      return;
    }
    if (gate->quorum && gate->due) {
      gate->done = true;
      gate->proceed(true);
    }
  };
  const bool appended = control_->append(
      controlplane::ControlEntry{Kind::kEpochCommit, epoch},
      [gate, resolve](bool committed) {
        gate->quorum = committed;
        resolve(committed);
      });
  if (!appended) {
    // Leaderless at the commit point: abort; the epoch is re-cut/retried
    // once the election settles.
    resolve(false);
    return;
  }
  sim_.at(earliest, [gate, resolve] {
    gate->due = true;
    resolve(true);
  });
}

std::optional<cluster::NodeId> JobRunner::leader_target() const {
  if (!control_) return cluster::NodeId{0};
  const auto l = control_->leader();
  if (!l.has_value()) return std::nullopt;
  return static_cast<cluster::NodeId>(*l);
}

// --- DVDC backend ------------------------------------------------------------

namespace {
PlannerConfig with_scheme_reserve(PlannerConfig planner,
                                  const ProtocolConfig& protocol) {
  // Auto-sized groups must leave one node per parity block eligible.
  if (planner.group_size == 0 && planner.parity_reserve == 1)
    planner.parity_reserve = static_cast<std::uint32_t>(
        parity_width(protocol.scheme, protocol.rs_parity));
  return planner;
}
}  // namespace

DvdcBackend::DvdcBackend(simkit::Simulator& sim,
                         cluster::ClusterManager& cluster,
                         ProtocolConfig protocol, RecoveryConfig recovery,
                         WorkloadFactory workloads, PlannerConfig planner)
    : cluster_(cluster),
      protocol_config_(protocol),
      coordinator_(sim, cluster, state_, protocol),
      recovery_(sim, cluster, state_, std::move(workloads), recovery),
      planner_(with_scheme_reserve(planner, protocol)) {}

void DvdcBackend::ensure_plan() {
  // Fast path: nothing in the cluster moved since the plan was last
  // validated (the pool-map stamp covers node joins/drains AND VM
  // placement churn), so skip even the O(plan) orthogonality walk.
  const auto stamp = cluster_.placement_map().stamp();
  if (placed_.has_value() && validated_stamp_ == stamp) return;
  if (placed_.has_value() && placed_->still_orthogonal(cluster_)) {
    validated_stamp_ = stamp;
    return;
  }
  // Consume the pool-map bump incrementally: intact groups survive the
  // replan verbatim, only broken ones re-form (and re-exchange). With no
  // plan yet, every VM is re-formed.
  GroupPlan next = planner_.replan(
      placed_.has_value() ? placed_->plan : GroupPlan{}, cluster_);
  auto& metrics = cluster_.sim().telemetry().metrics();
  metrics.add("plan.rebuilds", 1.0);
  if (placed_.has_value()) {
    std::set<std::vector<vm::VmId>> prev_groups;
    for (const auto& g : placed_->plan.groups) prev_groups.insert(g.members);
    std::size_t reused = 0;
    for (const auto& g : next.groups) reused += prev_groups.count(g.members);
    metrics.set("plan.groups_reused", static_cast<double>(reused));
  }
  metrics.set("plan.map_version", static_cast<double>(next.map_version));
  placed_ = PlacedPlan::make(std::move(next), cluster_,
                             protocol_config_.scheme,
                             protocol_config_.rs_parity);
  validated_stamp_ = stamp;
}

const PlacedPlan& DvdcBackend::placed_plan() {
  ensure_plan();
  return *placed_;
}

void DvdcBackend::checkpoint(checkpoint::Epoch epoch, EpochDone done) {
  ensure_plan();
  coordinator_.run_epoch(*placed_, epoch,
                         [this, done = std::move(done)](
                             const EpochStats& stats) {
                           // The committed stripes now match this plan.
                           committed_plan_ = placed_;
                           done(stats);
                         });
}

SimTime DvdcBackend::early_resume_delay() const {
  return protocol_config_.copy_on_write ? protocol_config_.base_overhead
                                        : -1.0;
}

void DvdcBackend::abort_checkpoint() { coordinator_.abort(); }

void DvdcBackend::on_node_failure(cluster::NodeId victim) {
  // Everything the node held — checkpoint shards AND parity blocks — is
  // gone the instant it dies, so a cascading second failure sees the
  // stripe damage of both victims combined.
  state_.drop_node(victim);
}

bool DvdcBackend::abort_recovery() { return recovery_.abort(); }

void DvdcBackend::handle_failure(const std::vector<vm::VmId>& lost,
                                 RecoveryDone done) {
  if (lost.empty()) {
    // Nothing left to reconstruct (the victims held no guests, or an
    // aborted earlier attempt already re-placed everything). Parity
    // blocks may still be gone; the next epoch re-plans and rebuilds
    // them with a full exchange.
    placed_.reset();
    RecoveryStats rs;
    rs.success = true;
    done(rs);
    return;
  }
  if (!committed_plan_.has_value()) {
    // No epoch has ever committed: there is nothing to recover from.
    RecoveryStats rs;
    rs.success = false;
    rs.reason = "no committed checkpoint plan yet";
    done(rs);
    return;
  }
  // Recover against the plan whose stripes are committed — NOT the
  // (possibly re-planned) next-epoch plan.
  recovery_.recover(*committed_plan_, lost,
                    [this, done = std::move(done)](const RecoveryStats& rs) {
                      if (rs.success && placed_.has_value() &&
                          !placed_->still_orthogonal(cluster_)) {
                        // Placement changed: the NEXT epoch needs a fresh
                        // plan (full exchange); the committed plan stays
                        // usable for recovery until then.
                        placed_.reset();
                      }
                      done(rs);
                    });
}

void DvdcBackend::on_job_restart() {
  // Stale stripes would roll the fresh job back into the old execution.
  placed_.reset();
  committed_plan_.reset();
  // Parity records die with their groups; the next epoch re-plans and
  // does a full exchange.
  state_ = DvdcState{};
}

}  // namespace vdc::core
