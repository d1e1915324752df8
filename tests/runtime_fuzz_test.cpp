// Seed-sweep "fuzz" of the end-to-end runtime: across many failure
// histories and schemes, the job must always finish, accounting must stay
// coherent, and identical seeds must replay identically. These are the
// whole-system invariants that unit tests can't pin down.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/baseline.hpp"
#include "core/runtime.hpp"
#include "model/montecarlo.hpp"
#include "fuzz_seeds.hpp"
#include "journal_audit.hpp"

namespace vdc::core {
namespace {

ClusterConfig tiny_cluster() {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

JobRunner::BackendFactory backend_for(ParityScheme scheme,
                                      ClusterConfig cc) {
  return [scheme, cc](simkit::Simulator& sim,
                      cluster::ClusterManager& cluster,
                      Rng&) -> std::unique_ptr<CheckpointBackend> {
    ProtocolConfig pc;
    pc.scheme = scheme;
    PlannerConfig planner;
    planner.group_size = 2;  // leaves >= 2 nodes parity-eligible (RS m=2)
    return std::make_unique<DvdcBackend>(sim, cluster, pc, RecoveryConfig{},
                                         make_workload_factory(cc), planner);
  };
}

class RuntimeFuzz
    : public ::testing::TestWithParam<std::tuple<ParityScheme, int>> {};

TEST_P(RuntimeFuzz, AlwaysFinishesWithCoherentAccounting) {
  const auto [scheme, seed] = GetParam();
  JobConfig job;
  job.total_work = minutes(25);
  job.interval = minutes(3);
  job.lambda = 1.0 / minutes(6);  // brutal: ~4 failures expected
  job.seed = static_cast<std::uint64_t>(seed);

  const ClusterConfig cc = tiny_cluster();
  JobRunner runner(job, cc, backend_for(scheme, cc));
  const RunResult r = runner.run();

  ASSERT_TRUE(r.finished) << "seed " << seed;
  EXPECT_GE(r.time_ratio, 1.0 - 1e-9);
  EXPECT_GE(r.lost_work, 0.0);
  EXPECT_GE(r.total_recovery, 0.0);
  EXPECT_GE(r.total_overhead, 0.0);
  // Wall time decomposes into at least work + overhead + recovery (there
  // is also lost/recomputed work, so >=).
  EXPECT_GE(r.completion + 1e-6,
            job.total_work + r.total_overhead + r.total_recovery);
  // Every VM is back and running at the end.
  EXPECT_EQ(runner.cluster().all_vms().size(),
            std::size_t{cc.nodes} * cc.vms_per_node);
  for (vm::VmId vmid : runner.cluster().all_vms())
    EXPECT_EQ(runner.cluster().machine(vmid).state(), vm::VmState::Running);
}

TEST_P(RuntimeFuzz, ReplayIsBitIdentical) {
  const auto [scheme, seed] = GetParam();
  JobConfig job;
  job.total_work = minutes(15);
  job.interval = minutes(2);
  job.lambda = 1.0 / minutes(5);
  job.seed = static_cast<std::uint64_t>(seed) * 7919;

  const ClusterConfig cc = tiny_cluster();
  JobRunner a(job, cc, backend_for(scheme, cc));
  JobRunner b(job, cc, backend_for(scheme, cc));
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_TRUE(ra.finished && rb.finished);
  EXPECT_DOUBLE_EQ(ra.completion, rb.completion);
  EXPECT_EQ(ra.failures, rb.failures);
  EXPECT_EQ(ra.epochs, rb.epochs);
  EXPECT_EQ(ra.job_restarts, rb.job_restarts);
  EXPECT_EQ(ra.bytes_shipped, rb.bytes_shipped);
  EXPECT_DOUBLE_EQ(ra.lost_work, rb.lost_work);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSchemes, RuntimeFuzz,
    ::testing::Combine(::testing::Values(ParityScheme::Raid5,
                                         ParityScheme::Rs),
                       ::testing::Range(1, 9)));

// --- cascade-heavy regime ---------------------------------------------------
//
// Per-node bursty clocks (infant-mortality Weibull) with repair re-arming,
// scripted: every node fails at Weibull(0.7, 25 min) gaps, its clock
// restarting 60 s (the repair gap) after each kill, and the clocks merge
// into one schedule of `fail` events. Nodes keep failing for the whole run
// and strikes routinely land inside an open recovery episode. Across every
// seed the committed-work watermark must be monotone except through the
// two documented cuts (kRollback, kJobRestart) — committed work is never
// *silently* lost.

/// The cascade regime's job: its kills run to a horizon well past the
/// job's end, so the regime cannot go quiet early (each test asserts the
/// last kill lands after completion).
JobConfig cascade_job(int seed, std::uint32_t nodes) {
  JobConfig job;
  job.total_work = minutes(25);
  job.interval = minutes(3);
  job.seed = static_cast<std::uint64_t>(seed);
  const SimTime horizon = 8 * job.total_work;
  failure::WeibullTtf ttf(0.7, minutes(25));
  Rng rng(job.seed);
  for (failure::NodeId node = 0; node < nodes; ++node)
    for (SimTime at = ttf.sample(rng); at < horizon;
         at += 60.0 + ttf.sample(rng))
      job.failure_schedule.push_back({at, node});
  std::stable_sort(
      job.failure_schedule.begin(), job.failure_schedule.end(),
      [](const auto& a, const auto& b) { return a.at < b.at; });
  return job;
}

class CascadeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CascadeFuzz, CommittedWorkIsNeverSilentlyLost) {
  const int seed = GetParam();
  const ClusterConfig cc = tiny_cluster();
  const JobConfig job = cascade_job(seed, cc.nodes);
  JobRunner runner(job, cc, backend_for(ParityScheme::Raid5, cc));
  const RunResult r = runner.run();

  ASSERT_TRUE(r.finished) << "seed " << seed;
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_GT(job.failure_schedule.back().at, r.completion);
  expect_watermark_monotone(runner.journal());
  EXPECT_EQ(r.recovery_cascades, cascades(runner.journal()).size());
  EXPECT_GE(r.failures_during_recovery, r.recovery_cascades);
  auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_EQ(metrics.find("job.failures_ignored"), nullptr);
  EXPECT_EQ(runner.cluster().all_vms().size(),
            std::size_t{cc.nodes} * cc.vms_per_node);
  for (vm::VmId vmid : runner.cluster().all_vms())
    EXPECT_EQ(runner.cluster().machine(vmid).state(), vm::VmState::Running);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeFuzz,
                         ::testing::Range(1, fuzz_seed_count(8) + 1));

TEST(CascadeFuzzRegime, ActuallyCascades) {
  // Guard against the regime silently going quiet: across a handful of
  // seeds the bursty fleet must force at least one cascaded round, or the
  // CascadeFuzz invariants above are vacuous.
  std::uint32_t cascades = 0;
  for (int seed = 1; seed <= 6; ++seed) {
    const ClusterConfig cc = tiny_cluster();
    const JobConfig job = cascade_job(seed, cc.nodes);
    JobRunner runner(job, cc, backend_for(ParityScheme::Raid5, cc));
    const RunResult r = runner.run();
    ASSERT_TRUE(r.finished) << "seed " << seed;
    EXPECT_GT(job.failure_schedule.back().at, r.completion) << "seed " << seed;
    cascades += r.recovery_cascades;
  }
  EXPECT_GT(cascades, 0u);
}

TEST(RuntimeTrace, TraceDrivenFailuresAreExact) {
  JobConfig job;
  job.total_work = minutes(20);
  job.interval = minutes(4);
  // Node 1 fails at t = 5 min and again at 35 min (the second strike
  // lands after the job completes).
  job.failure_schedule = {{minutes(5), 1}, {minutes(35), 1}};
  job.seed = 3;

  const ClusterConfig cc = tiny_cluster();
  JobRunner runner(job, cc, backend_for(ParityScheme::Raid5, cc));
  const RunResult r = runner.run();
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(r.failures, 1u);
  // The failure at 5 min strikes 1 min after the 4-min checkpoint: about
  // a minute of work is lost.
  EXPECT_NEAR(r.lost_work, minutes(1), 10.0);
}

TEST(RuntimeTrace, BackToBackFailures) {
  JobConfig job;
  job.total_work = minutes(10);
  job.interval = minutes(2);
  // A burst of failures one second apart, every node in turn (some land
  // during recovery and are absorbed), then quiet.
  job.failure_schedule = {{minutes(3), 2},
                          {minutes(3) + 1.0, 0},
                          {minutes(3) + 2.0, 1},
                          {minutes(3) + 3.0, 3}};
  job.seed = 4;

  const ClusterConfig cc = tiny_cluster();
  JobRunner runner(job, cc, backend_for(ParityScheme::Raid5, cc));
  const RunResult r = runner.run();
  ASSERT_TRUE(r.finished);
  EXPECT_GE(r.failures, 2u);
}

TEST(RuntimeModel, DesTracksRenewalModelUnderManySeeds) {
  // Aggregate DES completion times over seeds and compare with the
  // renewal Monte-Carlo at the same (interval, overhead, repair): the two
  // must agree to within a modest tolerance, closing the loop between
  // the system and the Section V analysis.
  JobConfig job;
  job.total_work = minutes(30);
  job.interval = minutes(5);
  job.lambda = 1.0 / minutes(12);

  const ClusterConfig cc = tiny_cluster();
  RunningStats des;
  SimTime overhead_sum = 0, recovery_sum = 0;
  std::uint32_t epochs = 0, failures = 0;
  for (int seed = 1; seed <= 12; ++seed) {
    job.seed = static_cast<std::uint64_t>(seed);
    JobRunner runner(job, cc, backend_for(ParityScheme::Raid5, cc));
    const RunResult r = runner.run();
    ASSERT_TRUE(r.finished);
    des.add(r.completion);
    overhead_sum += r.total_overhead;
    recovery_sum += r.total_recovery;
    epochs += r.epochs;
    failures += r.failures;
  }

  model::McConfig mc;
  mc.lambda = job.lambda;
  mc.total_work = job.total_work;
  mc.interval = job.interval;
  mc.overhead = epochs ? overhead_sum / epochs : 0.0;
  mc.repair = failures ? recovery_sum / failures : 0.0;
  mc.trials = 20000;
  const auto renewal = model::simulate_completion_times(mc, Rng(99));

  // Within 10%: the DES has detection/restart effects the renewal model
  // folds into a single T_r, so exact agreement is not expected.
  EXPECT_NEAR(des.mean() / renewal.mean(), 1.0, 0.10);
}

}  // namespace
}  // namespace vdc::core
