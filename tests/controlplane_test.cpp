// Replicated control plane: wire format, applied view, raft safety, and
// the JobRunner integration (quorum-gated epoch commit, leader-targeted
// fault grammar, takeover state rebuild, zero-fault bit-identity).

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "controlplane/log.hpp"
#include "controlplane/raft.hpp"
#include "core/runtime.hpp"
#include "failure/injector.hpp"
#include "journal_audit.hpp"
#include "net/fault.hpp"

namespace vdc::controlplane {
namespace {

using Kind = ControlEntry::Kind;

ControlEntry entry(Kind kind, std::uint64_t value = 0,
                   std::uint64_t arg = 0) {
  ControlEntry e;
  e.kind = kind;
  e.value = value;
  e.arg = arg;
  return e;
}

// --- wire format -------------------------------------------------------------

Frame sample_append_frame() {
  Frame f;
  f.type = Frame::Type::kAppend;
  f.from = 2;
  f.to = 0;
  f.term = 7;
  f.prev_index = 11;
  f.prev_term = 6;
  f.leader_commit = 9;
  f.entries.push_back(LogRecord{6, entry(Kind::kEpochCut, 41)});
  f.entries.push_back(LogRecord{7, entry(Kind::kEpochCommit, 41, 1)});
  f.entries.push_back(LogRecord{7, entry(Kind::kNodeFenced, 3, 42)});
  return f;
}

TEST(ControlFrame, RoundTripsAllMessageTypes) {
  std::vector<Frame> frames;
  Frame rv;
  rv.type = Frame::Type::kRequestVote;
  rv.from = 1;
  rv.to = 2;
  rv.term = 3;
  rv.last_log_index = 17;
  rv.last_log_term = 2;
  frames.push_back(rv);
  Frame vote;
  vote.type = Frame::Type::kVote;
  vote.from = 2;
  vote.to = 1;
  vote.term = 3;
  vote.granted = true;
  frames.push_back(vote);
  frames.push_back(sample_append_frame());
  Frame ack;
  ack.type = Frame::Type::kAck;
  ack.from = 0;
  ack.to = 2;
  ack.term = 7;
  ack.success = true;
  ack.match_index = 14;
  frames.push_back(ack);

  for (const Frame& f : frames) {
    const auto wire = encode_frame(f);
    Frame back;
    ASSERT_TRUE(decode_frame(wire, back));
    EXPECT_EQ(back, f);
  }
}

TEST(ControlFrame, EveryBitFlipIsRejected) {
  const auto wire = encode_frame(sample_append_frame());
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    auto bad = wire;
    bad[bit / 8] ^= std::byte{1} << (bit % 8);
    Frame out;
    EXPECT_FALSE(decode_frame(bad, out)) << "bit " << bit;
    // The judged-corrupt delivery path uses the same arithmetic.
    EXPECT_TRUE(net::crc_catches_flip(frame_payload(wire), frame_crc(wire),
                                      bit));
  }
}

TEST(ControlFrame, RejectsShapeViolations) {
  Frame out;
  EXPECT_FALSE(decode_frame({}, out));
  const auto wire = encode_frame(sample_append_frame());
  // Truncated and padded buffers.
  EXPECT_FALSE(
      decode_frame(std::span<const std::byte>(wire).first(wire.size() - 1),
                   out));
  auto padded = wire;
  padded.push_back(std::byte{0});
  EXPECT_FALSE(decode_frame(padded, out));
}

// --- applied view ------------------------------------------------------------

TEST(CoordinatorView, EpochSequenceIsGapFreeAndIdempotent) {
  CoordinatorView view;
  view.apply(entry(Kind::kEpochCut, 1));
  view.apply(entry(Kind::kEpochCommit, 1));
  view.apply(entry(Kind::kEpochCommit, 2));
  EXPECT_EQ(view.committed_epoch, 2u);
  EXPECT_TRUE(view.epoch_sequence_ok);
  // Re-proposal of an orphaned commit record: idempotent, not a gap.
  view.apply(entry(Kind::kEpochCommit, 2));
  EXPECT_EQ(view.committed_epoch, 2u);
  EXPECT_TRUE(view.epoch_sequence_ok);
  // Skipping forward IS a gap — the latch trips.
  view.apply(entry(Kind::kEpochCommit, 5));
  EXPECT_FALSE(view.epoch_sequence_ok);
}

TEST(CoordinatorView, TracksMembershipAndRestart) {
  CoordinatorView view;
  view.apply(entry(Kind::kEpochCommit, 1));
  view.apply(entry(Kind::kNodeFailed, 3));
  view.apply(entry(Kind::kNodeFenced, 3, 2));
  view.apply(entry(Kind::kRecoveryBegin, 3));
  EXPECT_TRUE(view.episode_open);
  EXPECT_EQ(view.failed.count(3), 1u);
  EXPECT_EQ(view.fences.at(3), 2u);
  view.apply(entry(Kind::kNodeRejoined, 3));
  view.apply(entry(Kind::kRecoverySettled, 1, 1));
  EXPECT_FALSE(view.episode_open);
  EXPECT_EQ(view.failed.count(3), 0u);
  EXPECT_EQ(view.fences.count(3), 0u);
  view.apply(entry(Kind::kPlanVersion, 4));
  EXPECT_EQ(view.plan_version, 4u);
  // Restart: epoch numbering starts over; epoch 1 is again in sequence.
  view.apply(entry(Kind::kJobRestart));
  EXPECT_EQ(view.restarts, 1u);
  view.apply(entry(Kind::kEpochCommit, 1));
  EXPECT_EQ(view.committed_epoch, 1u);
  EXPECT_TRUE(view.epoch_sequence_ok);
}

// --- raft plane --------------------------------------------------------------

struct PlaneFixture {
  simkit::Simulator sim;
  Rng rng{1234};
  cluster::ClusterManager cluster{sim, Rng(99)};
  std::optional<ControlPlane> plane;

  explicit PlaneFixture(std::uint32_t nodes = 5,
                        ControlPlaneConfig config = {}) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    plane.emplace(sim, cluster, config, rng);
  }
};

TEST(ControlPlane, BootstrapsNodeZeroAsLeaderWithoutAnElection) {
  PlaneFixture fx;
  fx.plane->start();
  ASSERT_TRUE(fx.plane->leader().has_value());
  EXPECT_EQ(*fx.plane->leader(), 0u);
  EXPECT_EQ(fx.plane->term(), 1u);
  EXPECT_EQ(fx.plane->elections(), 0u);
  fx.sim.run_until(1.0);
  // Still the bootstrap leader; a fault-free plane never elects.
  EXPECT_EQ(*fx.plane->leader(), 0u);
  EXPECT_EQ(fx.plane->elections(), 0u);
  EXPECT_TRUE(fx.plane->election_safety_ok());
  fx.plane->stop();
}

TEST(ControlPlane, AppendCommitsThroughQuorumAndAppliesEverywhere) {
  PlaneFixture fx;
  fx.plane->start();
  int commits = 0;
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCut, 1),
                               [&](bool ok) { commits += ok; }));
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCommit, 1),
                               [&](bool ok) { commits += ok; }));
  fx.sim.run_until(1.0);
  EXPECT_EQ(commits, 2);
  ASSERT_NE(fx.plane->leader_view(), nullptr);
  EXPECT_EQ(fx.plane->leader_view()->committed_epoch, 1u);
  // Every replica's applied view converges (heartbeats carry the
  // commit watermark to all followers).
  for (NodeId n = 0; n < fx.plane->replica_count(); ++n)
    EXPECT_EQ(fx.plane->view(n).committed_epoch, 1u) << "replica " << n;
  EXPECT_TRUE(fx.plane->logs_consistent());
  EXPECT_TRUE(fx.plane->epoch_sequence_ok());
  fx.plane->stop();
}

TEST(ControlPlane, LeaderDeathElectsSuccessorAndFailsOrphanedAppends) {
  PlaneFixture fx;
  fx.plane->start();
  fx.sim.run_until(0.5);
  // Kill the leader with a record in flight: the waiter must resolve
  // false (abandoned), never hang, never double-commit.
  bool resolved = false, committed = false;
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCommit, 1), [&](bool ok) {
    resolved = true;
    committed = ok;
  }));
  fx.cluster.kill_node(0);
  fx.plane->on_node_death(0);
  fx.sim.run_until(2.0);
  EXPECT_TRUE(resolved);
  EXPECT_FALSE(committed);
  ASSERT_TRUE(fx.plane->leader().has_value());
  EXPECT_NE(*fx.plane->leader(), 0u);
  EXPECT_GE(fx.plane->elections(), 1u);
  EXPECT_GE(fx.plane->term(), 2u);
  // The new leader still commits records.
  bool ok2 = false;
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCommit, 1),
                               [&](bool ok) { ok2 = ok; }));
  fx.sim.run_until(3.0);
  EXPECT_TRUE(ok2);
  EXPECT_TRUE(fx.plane->election_safety_ok());
  EXPECT_TRUE(fx.plane->logs_consistent());
  fx.plane->stop();
}

TEST(ControlPlane, RejoinedReplicaCatchesUpUnsynced) {
  PlaneFixture fx;
  fx.plane->start();
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCut, 1)));
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCommit, 1)));
  fx.sim.run_until(0.5);
  fx.cluster.kill_node(2);
  fx.plane->on_node_death(2);
  fx.sim.run_until(1.0);
  fx.cluster.revive_node(2);
  fx.plane->on_node_rejoin(2);
  // The leader's regular heartbeats find and catch up the empty replica.
  fx.sim.run_until(2.0);
  EXPECT_EQ(fx.plane->view(2).committed_epoch, 1u);
  EXPECT_EQ(fx.plane->log(2).size(), fx.plane->log(0).size());
  EXPECT_TRUE(fx.plane->logs_consistent());
  fx.plane->stop();
}

TEST(ControlPlane, FencedDeposedLeaderCannotCommitLateRecords) {
  PlaneFixture fx;
  fx.plane->start();
  fx.sim.run_until(0.5);
  // The cluster declares the (alive) leader dead and fences it — the
  // partitioned-zombie scenario. Its late appends must be rejected by
  // followers, and a real election must depose it.
  fx.cluster.fence_node(0, /*token=*/2);
  ASSERT_TRUE(fx.plane->append(entry(Kind::kEpochCommit, 1)));
  fx.sim.run_until(3.0);
  const auto& metrics = fx.sim.telemetry().metrics();
  EXPECT_GT(metrics.value("cp.fenced_rejects"), 0.0);
  ASSERT_TRUE(fx.plane->leader().has_value());
  EXPECT_NE(*fx.plane->leader(), 0u);
  // The zombie's uncommitted record never reached the quorum: no replica
  // other than the zombie applied epoch 1.
  for (NodeId n = 1; n < fx.plane->replica_count(); ++n)
    EXPECT_EQ(fx.plane->view(n).committed_epoch, 0u) << "replica " << n;
  EXPECT_TRUE(fx.plane->election_safety_ok());
  fx.plane->stop();
}

}  // namespace
}  // namespace vdc::controlplane

// --- JobRunner integration ---------------------------------------------------

namespace vdc::core {
namespace {

JobRunner::BackendFactory dvdc_factory(ProtocolConfig protocol = {},
                                       RecoveryConfig recovery = {},
                                       ClusterConfig cc = {}) {
  return [protocol, recovery, cc](simkit::Simulator& sim,
                                  cluster::ClusterManager& cluster,
                                  Rng&) -> std::unique_ptr<CheckpointBackend> {
    return std::make_unique<DvdcBackend>(sim, cluster, protocol, recovery,
                                         make_workload_factory(cc));
  };
}

ClusterConfig small_cluster() {
  ClusterConfig cc;
  cc.nodes = 6;
  cc.vms_per_node = 2;
  cc.pages_per_vm = 32;
  cc.page_size = kib(1);
  cc.write_rate = 100.0;
  return cc;
}

TEST(ControlPlaneRuntime, ZeroFaultRunBitIdenticalToBaseline) {
  // The acceptance invariant: enabling the control plane with zero
  // coordinator faults must leave the job — epochs, wire bytes, fault
  // schedule, serving metrics — bit-identical to the single-coordinator
  // baseline.
  JobConfig base;
  base.total_work = minutes(4);
  base.interval = minutes(1);
  base.traffic = workload::TrafficConfig{};
  base.traffic->streams_per_guest = 2;
  base.traffic->clients_per_guest = 10;
  JobConfig gated = base;
  gated.control = controlplane::ControlPlaneConfig{};

  JobRunner a(base, small_cluster(), dvdc_factory());
  const RunResult ra = a.run();
  JobRunner b(gated, small_cluster(), dvdc_factory());
  const RunResult rb = b.run();

  ASSERT_TRUE(ra.finished && rb.finished);
  EXPECT_DOUBLE_EQ(ra.completion, rb.completion);
  EXPECT_EQ(ra.epochs, rb.epochs);
  EXPECT_EQ(ra.bytes_shipped, rb.bytes_shipped);
  EXPECT_EQ(ra.failures, rb.failures);

  const auto sa = a.traffic()->summary();
  const auto sb = b.traffic()->summary();
  EXPECT_EQ(sa.requests, sb.requests);
  EXPECT_EQ(sa.delivered, sb.delivered);
  EXPECT_DOUBLE_EQ(sa.latency_p50, sb.latency_p50);
  EXPECT_DOUBLE_EQ(sa.latency_p99, sb.latency_p99);
  EXPECT_EQ(sa.held_bytes_peak, sb.held_bytes_peak);

  // The gated run really did route every epoch through the quorum...
  ASSERT_NE(b.control(), nullptr);
  EXPECT_EQ(b.control()->leader_view()->committed_epoch,
            static_cast<std::uint64_t>(rb.epochs));
  // ...with node 0 the bootstrap leader throughout (no elections).
  EXPECT_EQ(b.control()->elections(), 0u);
  EXPECT_TRUE(b.control()->election_safety_ok());
  EXPECT_TRUE(b.control()->epoch_sequence_ok());
  EXPECT_TRUE(b.control()->logs_consistent());

  // The journal is recorded with or without the plane, and the plane
  // replicates exactly the journal: the leader's log, minus the term
  // assertions, is the journal's entries in order.
  EXPECT_EQ(a.journal(), b.journal());
  std::vector<controlplane::ControlEntry> replicated, journaled;
  for (const auto& rec : b.control()->log(*b.control()->leader()))
    if (rec.entry.kind != JournalKind::kNoop) replicated.push_back(rec.entry);
  for (const JournalEntry& e : b.journal()) journaled.push_back(e.entry);
  EXPECT_EQ(replicated, journaled);
}

TEST(ControlPlaneRuntime, LeaderKillMidEpochCompletesAfterReElection) {
  // The headline drill: schedule a coordinator kill squarely inside an
  // epoch capture. The quorum elects a successor; the job completes with
  // gap-free committed epochs; a follower's rebuilt view agrees with the
  // backend about what committed.
  JobConfig job;
  job.total_work = minutes(4);
  job.interval = minutes(1);
  job.control = controlplane::ControlPlaneConfig{};
  // Stretch each epoch to a 0.5 s stall so the second capture (epoch 2,
  // cut at work 120 = sim ~120.5) is reliably in flight when the kill
  // fires — epoch 1 is committed by then, so recovery rolls back to it
  // instead of escalating to a restart.
  ProtocolConfig protocol;
  protocol.base_overhead = 0.5;
  job.failure_schedule = failure::ScheduledFailureInjector::parse(
      "kill-leader at 120.8\n");

  JobRunner runner(job, small_cluster(), dvdc_factory(protocol));
  const RunResult result = runner.run();

  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.failures, 1u);
  EXPECT_EQ(result.job_restarts, 0u);
  auto* cp = runner.control();
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->elections(), 1u);
  ASSERT_TRUE(cp->leader().has_value());
  EXPECT_NE(*cp->leader(), 0u);
  EXPECT_TRUE(cp->election_safety_ok());
  EXPECT_TRUE(cp->epoch_sequence_ok());
  EXPECT_TRUE(cp->logs_consistent());
  // The new leader's replayed view has exactly the backend's epochs.
  EXPECT_EQ(cp->leader_view()->committed_epoch,
            runner.backend()->committed_epoch());
  EXPECT_EQ(result.epochs,
            static_cast<std::uint32_t>(runner.backend()->committed_epoch()));
  // The log recorded the episode (membership + recovery transitions).
  EXPECT_EQ(cp->leader_view()->failed.count(0), 0u);  // rejoined (oracle)
  EXPECT_FALSE(cp->leader_view()->episode_open);
  // The kill really interrupted epoch 2 in flight: its cut was logged
  // once through the old leader and again when it was re-captured.
  int epoch2_cuts = 0;
  for (const auto& rec : cp->log(*cp->leader()))
    if (rec.entry.kind == controlplane::ControlEntry::Kind::kEpochCut &&
        rec.entry.value == 2)
      ++epoch2_cuts;
  EXPECT_EQ(epoch2_cuts, 2);
}

TEST(ControlPlaneRuntime, KillLeaderWithoutControlPlaneStrikesNodeZero) {
  // Without a control plane the implicit coordinator is node 0; the
  // leader-targeted grammar still works and kills it.
  JobConfig job;
  job.total_work = minutes(3);
  job.interval = minutes(1);
  job.failure_schedule =
      failure::ScheduledFailureInjector::parse("kill-leader at 70\n");
  JobRunner runner(job, small_cluster(), dvdc_factory());
  const RunResult result = runner.run();
  ASSERT_TRUE(result.finished);
  const Journal episodes =
      entries_of(runner.journal(), JournalKind::kRecoveryBegin);
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].entry.value, 0u);
}

TEST(ControlPlaneRuntime, LeaderPartitionedThenHealsKeepsCommitsSafe) {
  // Wire mode: partition the leader mid-run. The bootstrap leader is node
  // 0, which is ALSO the heartbeat observer — isolating it cuts the
  // detector off from every other node, so the cluster mass-suspects the
  // far side, fences it, and the cascade correctly escalates to a job
  // restart. The point of the drill is what must survive that chaos: the
  // job still completes all its work, no term ever sees two leaders, the
  // committed epoch sequence stays gap-free, every replica's log agrees,
  // and once the partition heals the suspected zombies rejoin WITH their
  // intact replica state (a zombie's raft log never died with the
  // cluster's belief — wiping it could strand the quorum with no electable
  // majority).
  JobConfig quiet;
  quiet.total_work = minutes(5);
  quiet.interval = minutes(1);
  quiet.heartbeat = cluster::HeartbeatConfig{};
  quiet.control = controlplane::ControlPlaneConfig{};
  JobConfig drill = quiet;
  drill.failure_schedule = failure::ScheduledFailureInjector::parse(
      "partition-leader at 70 1\n"
      "heal 85 all\n");

  JobRunner a(quiet, small_cluster(), dvdc_factory());
  const RunResult ra = a.run();
  JobRunner b(drill, small_cluster(), dvdc_factory());
  const RunResult rb = b.run();

  ASSERT_TRUE(ra.finished);
  ASSERT_TRUE(rb.finished);
  // Same job completed either way (the drill just takes longer).
  EXPECT_DOUBLE_EQ(rb.total_work, ra.total_work);
  auto* cp = b.control();
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->elections(), 1u);
  EXPECT_TRUE(cp->election_safety_ok());
  EXPECT_TRUE(cp->epoch_sequence_ok());
  EXPECT_TRUE(cp->logs_consistent());
  EXPECT_EQ(cp->leader_view()->committed_epoch,
            b.backend()->committed_epoch());
  // Every suspicion was a false positive; all of them were discovered
  // (fenced stale writes) and every zombie rejoined with state intact.
  const auto& metrics = b.sim().telemetry().metrics();
  EXPECT_GE(metrics.value("job.suspected_failures"), 1.0);
  EXPECT_EQ(metrics.value("recovery.fenced"),
            metrics.value("job.suspected_failures"));
  for (controlplane::NodeId n = 0; n < cp->replica_count(); ++n) {
    EXPECT_TRUE(cp->replica_synced(n)) << "replica " << n;
    EXPECT_TRUE(b.cluster().node(n).alive()) << "replica " << n;
  }
}

}  // namespace
}  // namespace vdc::core
