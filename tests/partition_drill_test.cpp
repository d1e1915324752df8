// Partition drill: wire-true failure detection end to end.
//
// A partitioned-but-alive node must be (wrongly) declared dead after the
// heartbeat timeout, its VMs recovered elsewhere, its stale writes fenced
// off; when the partition heals, the first beat that gets through exposes
// the false positive and the zombie is reconciled back into the cluster —
// and the job still finishes with a monotone committed-work watermark.

#include <gtest/gtest.h>

#include <vector>

#include "core/runtime.hpp"
#include "failure/injector.hpp"
#include "journal_audit.hpp"

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

ClusterConfig drill_cluster() {
  ClusterConfig cc;
  cc.nodes = 6;  // recovery must stay satisfiable with a node fenced out
  cc.vms_per_node = 2;
  cc.pages_per_vm = 32;
  cc.page_size = kib(1);
  cc.write_rate = 100.0;
  return cc;
}

TEST(PartitionDrill, FalsePositiveFencingAndRejoin) {
  JobConfig job;
  job.total_work = minutes(5);
  job.interval = minutes(1);
  job.heartbeat = cluster::HeartbeatConfig{};
  job.failure_schedule = failure::ScheduledFailureInjector::parse(
      "partition 70 3 1\n"
      "heal 80 3\n");

  JobRunner runner(job, drill_cluster(), dvdc_factory());
  const RunResult result = runner.run();
  const auto& metrics = runner.sim().telemetry().metrics();
  const Journal& journal = runner.journal();

  audit_run(runner, result, job, drill_cluster());
  // The detector suspected the partitioned node (a false positive on the
  // wire), its beats were really dropped by the fault plane...
  EXPECT_GE(metrics.value("hb.suspected"), 1.0);
  EXPECT_GE(metrics.value("job.suspected_failures"), 1.0);
  EXPECT_GT(metrics.value("net.drops"), 0.0);
  // ...the cluster treated it as a failure episode and recovered...
  EXPECT_GE(count_of(journal, JournalKind::kRecoveryBegin), 1u);
  EXPECT_GE(count_of(journal, JournalKind::kRecoverySettled), 1u);
  // ...and after the heal, a beat got through, the zombie's stale write
  // was fenced off, and it rejoined.
  EXPECT_DOUBLE_EQ(metrics.value("hb.false_positives"), 1.0);
  EXPECT_GE(metrics.value("recovery.fenced"), 1.0);
  // A suspected failure is not a *real* injected failure.
  EXPECT_EQ(result.failures, 0u);
  EXPECT_EQ(result.job_restarts, 0u);
  EXPECT_EQ(count_of(journal, JournalKind::kJobRestart), 0u);
}

TEST(PartitionDrill, WireDetectionMeasuresRealFailureLatency) {
  JobConfig job;
  job.total_work = minutes(4);
  job.interval = minutes(1);
  job.heartbeat = cluster::HeartbeatConfig{};
  job.failure_schedule = failure::ScheduledFailureInjector::parse(
      "fail 70 3\n"
      "repair 200 3\n");

  JobRunner runner(job, drill_cluster(), dvdc_factory());
  const RunResult result = runner.run();
  const auto& metrics = runner.sim().telemetry().metrics();
  const Journal& journal = runner.journal();

  audit_run(runner, result, job, drill_cluster());
  EXPECT_EQ(result.failures, 1u);
  // Detection went over the wire: the dead node's beats simply stopped
  // and the timeout fired — no suspicion, no false positive.
  EXPECT_GE(metrics.value("hb.suspected"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("hb.false_positives"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.value("job.suspected_failures"), 0.0);
  EXPECT_GE(count_of(journal, JournalKind::kRecoverySettled), 1u);
  EXPECT_EQ(count_of(journal, JournalKind::kJobRestart), 0u);
}

TEST(PartitionDrill, WireModeFaultFreeMatchesOracleCompletion) {
  // With no faults at all, wire-true detection must not perturb the job:
  // beats ride the fabric but never contend with checkpoint traffic in a
  // way that changes the outcome.
  JobConfig oracle;
  oracle.total_work = minutes(3);
  oracle.interval = minutes(1);
  JobConfig wire = oracle;
  wire.heartbeat = cluster::HeartbeatConfig{};

  JobRunner a(oracle, drill_cluster(), dvdc_factory());
  const RunResult ra = a.run();
  JobRunner b(wire, drill_cluster(), dvdc_factory());
  const RunResult rb = b.run();

  audit_run(a, ra, oracle, drill_cluster());
  audit_run(b, rb, wire, drill_cluster());
  EXPECT_DOUBLE_EQ(ra.completion, rb.completion);
  EXPECT_EQ(ra.epochs, rb.epochs);
  EXPECT_EQ(rb.failures, 0u);
  EXPECT_DOUBLE_EQ(b.sim().telemetry().metrics().value("hb.suspected"), 0.0);
}

TEST(PartitionDrill, LeaderKillMidEpochMatchesUndisturbedWork) {
  // A scheduled coordinator kill between two commits: the control-plane
  // leader dies with epoch work uncommitted, a successor is elected, the
  // interrupted epoch is re-cut, and the job ends having committed
  // exactly as much work as a run nobody disturbed.
  JobConfig quiet;
  quiet.total_work = minutes(5);
  quiet.interval = minutes(1);
  quiet.control = controlplane::ControlPlaneConfig{};
  JobConfig drill = quiet;
  drill.failure_schedule =
      failure::ScheduledFailureInjector::parse("kill-leader at 90\n");

  JobRunner a(quiet, drill_cluster(), dvdc_factory());
  const RunResult ra = a.run();
  JobRunner b(drill, drill_cluster(), dvdc_factory());
  const RunResult rb = b.run();

  EXPECT_EQ(rb.failures, 1u);
  EXPECT_EQ(rb.job_restarts, 0u);
  // Same total committed work as the undisturbed run (the final stretch
  // past the last commit runs uncheckpointed in both).
  EXPECT_DOUBLE_EQ(audit_run(b, rb, drill, drill_cluster()),
                   audit_run(a, ra, quiet, drill_cluster()));
  EXPECT_DOUBLE_EQ(rb.total_work, ra.total_work);
  EXPECT_GE(count_of(b.journal(), JournalKind::kRecoveryBegin), 1u);
  ASSERT_NE(b.control(), nullptr);
  EXPECT_GE(b.control()->elections(), 1u);
  EXPECT_TRUE(b.control()->leader().has_value());
}

TEST(PartitionDrill, LeaderPartitionedThenHealsMatchesUndisturbedWork) {
  // Wire mode with the control plane on: isolating the leader (who is
  // also the heartbeat observer) triggers cluster-wide false positives
  // and possibly a restart — the drill must still commit every unit of
  // work the undisturbed run does, with a monotone watermark throughout.
  JobConfig quiet;
  quiet.total_work = minutes(5);
  quiet.interval = minutes(1);
  quiet.heartbeat = cluster::HeartbeatConfig{};
  quiet.control = controlplane::ControlPlaneConfig{};
  JobConfig drill = quiet;
  drill.failure_schedule = failure::ScheduledFailureInjector::parse(
      "partition-leader at 70 1\n"
      "heal 85 all\n");

  JobRunner a(quiet, drill_cluster(), dvdc_factory());
  const RunResult ra = a.run();
  JobRunner b(drill, drill_cluster(), dvdc_factory());
  const RunResult rb = b.run();

  EXPECT_DOUBLE_EQ(audit_run(b, rb, drill, drill_cluster()),
                   audit_run(a, ra, quiet, drill_cluster()));
  EXPECT_DOUBLE_EQ(rb.total_work, ra.total_work);
  ASSERT_NE(b.control(), nullptr);
  EXPECT_GE(b.control()->elections(), 1u);
  EXPECT_GE(b.sim().telemetry().metrics().value("job.suspected_failures"),
            1.0);
}

}  // namespace
}  // namespace vdc::core
