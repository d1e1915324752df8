// Scripted cascading-failure scenarios for the recovery supervisor: a
// second failure landing inside an open recovery episode must kill its
// node, abort the in-flight reconstruction, and force a cascaded round —
// never be silently dropped. Three deterministic schedules cover the
// cross-group (survivable), same-group (escalates to restart) and
// re-struck-replacement cases.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "journal_audit.hpp"
#include "telemetry/sinks.hpp"

namespace vdc::core {
namespace {

ClusterConfig cascade_cluster() {
  ClusterConfig cc;
  cc.nodes = 8;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 32;
  cc.write_rate = 100.0;
  return cc;
}

JobRunner::BackendFactory dvdc_factory(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    PlannerConfig planner;
    planner.group_size = 3;
    return std::make_unique<DvdcBackend>(sim, cluster, ProtocolConfig{},
                                         RecoveryConfig{},
                                         make_workload_factory(cc), planner);
  };
}

JobConfig base_job() {
  JobConfig job;
  job.total_work = minutes(20);
  job.interval = minutes(5);  // first commit at ~300 s of work
  job.seed = 33;
  return job;
}

// Per-node RAID-group incidence (the groups whose member VMs or parity
// blocks live on each node), read off a fault-free probe run. Placement
// is deterministic per seed, so the scripted runs below see the same plan
// up to their first strike.
std::vector<std::set<std::size_t>> probe_incidence(const JobConfig& base,
                                                   const ClusterConfig& cc) {
  JobConfig probe = base;
  probe.failure_schedule.clear();
  JobRunner runner(probe, cc, dvdc_factory(cc));
  const RunResult r = runner.run();
  EXPECT_TRUE(r.finished);
  auto* backend = dynamic_cast<DvdcBackend*>(runner.backend());
  EXPECT_NE(backend, nullptr);
  const PlacedPlan& placed = backend->placed_plan();
  std::vector<std::set<std::size_t>> incidence(cc.nodes);
  for (std::size_t gi = 0; gi < placed.plan.groups.size(); ++gi) {
    for (vm::VmId vmid : placed.plan.groups[gi].members) {
      const auto node = runner.cluster().locate(vmid);
      EXPECT_TRUE(node.has_value());
      if (node) incidence[*node].insert(gi);
    }
    for (cluster::NodeId holder : placed.holders[gi])
      incidence[holder].insert(gi);
  }
  return incidence;
}

using NodePair = std::pair<cluster::NodeId, cluster::NodeId>;

std::optional<NodePair> disjoint_pair(
    const std::vector<std::set<std::size_t>>& incidence) {
  for (cluster::NodeId a = 0; a < incidence.size(); ++a)
    for (cluster::NodeId b = a + 1; b < incidence.size(); ++b) {
      const bool overlap = std::any_of(
          incidence[a].begin(), incidence[a].end(),
          [&](std::size_t g) { return incidence[b].count(g) != 0; });
      if (!overlap) return NodePair{a, b};
    }
  return std::nullopt;
}

std::optional<NodePair> overlapping_pair(
    const std::vector<std::set<std::size_t>>& incidence) {
  for (cluster::NodeId a = 0; a < incidence.size(); ++a)
    for (cluster::NodeId b = a + 1; b < incidence.size(); ++b) {
      const bool overlap = std::any_of(
          incidence[a].begin(), incidence[a].end(),
          [&](std::size_t g) { return incidence[b].count(g) != 0; });
      if (overlap) return NodePair{a, b};
    }
  return std::nullopt;
}

std::size_t located_vms(cluster::ClusterManager& cluster) {
  std::size_t n = 0;
  for (vm::VmId vmid : cluster.all_vms())
    if (cluster.locate(vmid).has_value()) ++n;
  return n;
}

TEST(Cascade, CrossGroupSecondFailureRecoversInCascadedRound) {
  const ClusterConfig cc = cascade_cluster();
  const JobConfig base = base_job();
  const auto incidence = probe_incidence(base, cc);
  const auto pair = disjoint_pair(incidence);
  ASSERT_TRUE(pair.has_value())
      << "no disjoint-incidence node pair under this seed; reshape cluster";
  const auto [a, b] = *pair;

  JobConfig job = base;
  // First strike after the first commit; second lands mid-recovery.
  job.failure_schedule = {{360.0, a}, {362.0, b}};
  JobRunner runner(job, cc, dvdc_factory(cc));
  // The latent bug this suite exists for: a mid-recovery strike must kill
  // its node immediately, not be dropped.
  bool victim_dead_at_cascade = false;
  runner.sim().at(362.0 + 1e-6, [&] {
    victim_dead_at_cascade = !runner.cluster().node(b).alive();
  });
  const auto sink = trace(runner);
  const RunResult r = runner.run();

  audit_run(runner, r, job, cc, sink.get());
  EXPECT_EQ(r.failures, 2u);
  EXPECT_EQ(r.failures_during_recovery, 1u);
  EXPECT_EQ(r.recovery_cascades, 1u);
  EXPECT_EQ(r.job_restarts, 0u);
  const Journal cascaded = cascades(runner.journal());
  ASSERT_EQ(cascaded.size(), 1u);
  EXPECT_EQ(cascaded[0].entry.value, b);
  EXPECT_DOUBLE_EQ(cascaded[0].time, 362.0);
  EXPECT_TRUE(victim_dead_at_cascade);

  // One episode root span covering both strikes: two detect windows and a
  // backoff bar nest under it.
  const auto roots = sink->named("recovery");
  ASSERT_EQ(roots.size(), 1u);
  const auto detects = sink->named("recovery.detect");
  ASSERT_EQ(detects.size(), 2u);
  for (const auto& d : detects) EXPECT_EQ(d.parent, roots[0].id);
  const auto retries = sink->named("recovery.retry");
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].parent, roots[0].id);

  auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_EQ(metrics.value("recovery.attempts"), 2.0);
  EXPECT_EQ(metrics.value("recovery.cascades"), 1.0);
  EXPECT_GE(metrics.value("recovery.aborted"), 1.0);
  EXPECT_EQ(metrics.value("job.failures_during_recovery"), 1.0);
  EXPECT_FALSE(runner.cluster().degraded());
}

TEST(Cascade, SameGroupSecondLossEscalatesToRestart) {
  const ClusterConfig cc = cascade_cluster();
  const JobConfig base = base_job();
  const auto incidence = probe_incidence(base, cc);
  const auto pair = overlapping_pair(incidence);
  ASSERT_TRUE(pair.has_value());
  const auto [a, b] = *pair;

  JobConfig job = base;
  // Second strike inside the detection window: both losses fold into one
  // attempt whose shared group then has two erasures — beyond RAID-5.
  job.failure_schedule = {{360.0, a}, {360.3, b}};
  JobRunner runner(job, cc, dvdc_factory(cc));
  const auto sink = trace(runner);
  const RunResult r = runner.run();
  audit_run(runner, r, job, cc, sink.get());
  bool settled_failure = false;
  bool restart_after_failure = false;
  SimTime watermark_after_restart = -1.0;
  for (const JournalEntry& e : runner.journal()) {
    if (e.entry.kind == JournalKind::kRecoverySettled && e.entry.arg == 0)
      settled_failure = true;
    if (e.entry.kind == JournalKind::kJobRestart && settled_failure) {
      restart_after_failure = true;
      watermark_after_restart = e.committed_work;
    }
  }

  EXPECT_EQ(r.failures, 2u);
  EXPECT_EQ(r.failures_during_recovery, 1u);
  EXPECT_EQ(r.recovery_cascades, 1u);
  EXPECT_EQ(r.job_restarts, 1u);
  EXPECT_TRUE(settled_failure);
  EXPECT_TRUE(restart_after_failure);
  EXPECT_EQ(watermark_after_restart, 0.0);

  auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_EQ(metrics.value("recovery.attempts"), 1.0);
  EXPECT_EQ(metrics.value("recovery.cascades"), 1.0);
  EXPECT_GE(metrics.value("recovery.failures"), 0.0);  // labeled by reason
  EXPECT_FALSE(runner.cluster().degraded());
}

TEST(Cascade, RestrikingTheReplacementNodeRetriesRecovery) {
  const ClusterConfig cc = cascade_cluster();
  JobConfig job = base_job();
  // Node 0 dies, is revived for the reconstruction attempt, and — being
  // the emptiest node — starts receiving the re-placed VMs. Striking it
  // again mid-replace must abort and retry, not wedge.
  const cluster::NodeId a = 0;
  job.failure_schedule = {{360.0, a}, {362.0, a}};
  JobRunner runner(job, cc, dvdc_factory(cc));
  std::size_t missing_at_cascade = 0;
  runner.sim().at(362.0 + 1e-6, [&] {
    missing_at_cascade = std::size_t{cc.nodes} * cc.vms_per_node -
                         located_vms(runner.cluster());
  });
  // Sample the victim's load just before the re-strike: the recovery must
  // actually have been re-placing VMs onto it for this scenario to bite.
  std::size_t on_victim_before_restrike = 0;
  runner.sim().at(361.9, [&] {
    on_victim_before_restrike =
        runner.cluster().node(a).hypervisor().vm_ids().size();
  });
  const auto sink = trace(runner);
  const RunResult r = runner.run();

  audit_run(runner, r, job, cc, sink.get());
  const Journal cascaded = cascades(runner.journal());
  ASSERT_EQ(cascaded.size(), 1u);
  EXPECT_EQ(cascaded[0].entry.value, a);
  EXPECT_DOUBLE_EQ(cascaded[0].time, 362.0);
  EXPECT_GT(on_victim_before_restrike, 0u)
      << "re-strike landed before any VM was re-placed on the victim";
  EXPECT_GE(missing_at_cascade, 1u);
  EXPECT_EQ(r.failures, 2u);
  EXPECT_EQ(r.failures_during_recovery, 1u);
  EXPECT_EQ(r.recovery_cascades, 1u);
  EXPECT_EQ(r.job_restarts, 0u);

  auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_EQ(metrics.value("recovery.attempts"), 2.0);
  EXPECT_EQ(metrics.value("recovery.cascades"), 1.0);
  EXPECT_GE(metrics.value("recovery.aborted"), 1.0);
  EXPECT_FALSE(runner.cluster().degraded());
}

TEST(Cascade, LeaderKillMidRecoveryCompletesAllWork) {
  // The coordinator dies WHILE supervising someone else's recovery: the
  // first strike opens an episode, then a scheduled kill-leader lands
  // inside it. The kill folds the control leader into the episode as a
  // cascade, a successor is elected (the next recovery attempt waits on
  // the election), the successor's replayed log carries the open
  // episode, and the job commits the same total work as an undisturbed
  // run would.
  const ClusterConfig cc = cascade_cluster();
  JobConfig job = base_job();
  job.control = controlplane::ControlPlaneConfig{};
  // Node 0 is the bootstrap leader; make the first victim a data node so
  // the kill-leader at 362 is a genuine mid-recovery coordinator loss.
  job.failure_schedule = failure::ScheduledFailureInjector::parse(
      "fail 360 5\n"
      "kill-leader at 362\n");
  JobRunner runner(job, cc, dvdc_factory(cc));
  const auto sink = trace(runner);
  const RunResult r = runner.run();

  const SimTime final_watermark = audit_run(runner, r, job, cc, sink.get());
  EXPECT_EQ(r.failures, 2u);
  EXPECT_GE(cascades(runner.journal()).size(), 1u);
  // Same total committed work as an undisturbed run. The final stretch
  // past the last commit runs uncheckpointed, so the watermark tops out
  // at the last interval boundary in both runs.
  EXPECT_DOUBLE_EQ(final_watermark, job.total_work - job.interval);
  auto* cp = runner.control();
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->elections(), 1u);
  // The post-election leader's replayed view converged with the data
  // plane: the episode is closed (audit_run checks the committed epoch).
  ASSERT_TRUE(cp->leader().has_value());
  EXPECT_FALSE(cp->leader_view()->episode_open);
}

TEST(Cascade, RecoveryPhasesPartitionEachRootOnTheFleetShape) {
  // bench/e2e's `fleet` at its smoke size: declustered RAID-5 groups of
  // 15 and kills at 11 s and 12 s. The second kill lands inside attempt
  // 1's replace, which must then end at the strike and leave no rollback
  // (audit_run checks that the phases add up to the one root).
  ClusterConfig cc;
  cc.nodes = 40;
  cc.vms_per_node = 10;
  cc.pages_per_vm = 16;
  cc.page_size = kib(4);
  cc.write_rate = 20.0;
  JobConfig job;
  job.seed = 1;
  job.interval = 5.0;
  job.total_work = 20.0;
  job.failure_schedule = {{11.0, 7}, {12.0, 20}};
  PlannerConfig planner;
  planner.group_size = 15;
  planner.layout = PlannerConfig::Layout::Declustered;
  JobRunner runner(job, cc,
                   [cc, planner](simkit::Simulator& sim,
                                 cluster::ClusterManager& cluster, Rng&)
                       -> std::unique_ptr<CheckpointBackend> {
                     return std::make_unique<DvdcBackend>(
                         sim, cluster, ProtocolConfig{}, RecoveryConfig{},
                         make_workload_factory(cc), planner);
                   });
  const auto sink = trace(runner);
  const RunResult r = runner.run();
  audit_run(runner, r, job, cc, sink.get());
  EXPECT_EQ(r.recovery_cascades, 1u);
  ASSERT_EQ(sink->named("recovery").size(), 1u);
  const auto replaces = sink->named("recovery.replace");
  ASSERT_EQ(replaces.size(), 2u);
  EXPECT_DOUBLE_EQ(replaces[0].end, 12.0);
  EXPECT_EQ(sink->named("recovery.rollback").size(), 1u);
}

}  // namespace
}  // namespace vdc::core
