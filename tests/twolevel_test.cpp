// Tests for the MTTDL reliability model and the two-level
// (diskless + NAS) checkpoint backend.

#include <gtest/gtest.h>

#include "core/twolevel.hpp"
#include "journal_audit.hpp"
#include "model/reliability.hpp"

namespace vdc {
namespace {

// --- MTTDL ------------------------------------------------------------------

TEST(Mttdl, SinglesDiskFormulaMatchesClassic) {
  // m=1: MTTDL ~= MTBF^2 / (w (w-1) MTTR) for MTTR << MTBF.
  model::StripeReliability config;
  config.width = 4;
  config.tolerance = 1;
  config.node_mtbf = hours(1000);
  config.mttr = minutes(10);
  const double classic = config.node_mtbf * config.node_mtbf /
                         (4.0 * 3.0 * config.mttr);
  EXPECT_NEAR(mttdl(config) / classic, 1.0, 0.01);
}

TEST(Mttdl, MoreParityMeansVastlyLongerLife) {
  model::StripeReliability config;
  config.width = 6;
  config.node_mtbf = hours(500);
  config.mttr = minutes(30);
  config.tolerance = 1;
  const double m1 = model::mttdl(config);
  config.tolerance = 2;
  const double m2 = model::mttdl(config);
  config.tolerance = 3;
  const double m3 = model::mttdl(config);
  EXPECT_GT(m2, m1 * 50);
  EXPECT_GT(m3, m2 * 50);
}

TEST(Mttdl, FasterRepairHelps) {
  model::StripeReliability config;
  config.width = 4;
  config.tolerance = 1;
  config.node_mtbf = hours(100);
  config.mttr = minutes(60);
  const double slow = model::mttdl(config);
  config.mttr = minutes(6);
  // First-order: 10x; higher-order chain terms shave a few percent.
  EXPECT_NEAR(model::mttdl(config) / slow, 10.0, 1.0);
}

TEST(Mttdl, MonteCarloAgreesWithChain) {
  model::StripeReliability config;
  config.width = 4;
  config.tolerance = 1;
  config.node_mtbf = 100.0;  // short scales so trials are cheap
  config.mttr = 5.0;
  const double analytic = model::mttdl(config);
  const auto mc = model::simulate_mttdl(config, 4000, Rng(3));
  EXPECT_NEAR(mc.mean(), analytic, 4 * mc.ci95_halfwidth());
}

TEST(Mttdl, MonteCarloAgreesForDoubleParity) {
  model::StripeReliability config;
  config.width = 5;
  config.tolerance = 2;
  config.node_mtbf = 50.0;
  config.mttr = 10.0;
  const double analytic = model::mttdl(config);
  const auto mc = model::simulate_mttdl(config, 4000, Rng(4));
  EXPECT_NEAR(mc.mean(), analytic, 4 * mc.ci95_halfwidth());
}

TEST(Mttdl, ClusterScalesDownWithGroups) {
  model::StripeReliability config;
  EXPECT_NEAR(model::cluster_mttdl(config, 4), model::mttdl(config) / 4.0,
              1e-6);
}

TEST(Mttdl, InvalidConfigRejected) {
  model::StripeReliability bad;
  bad.width = 1;
  EXPECT_THROW(model::mttdl(bad), ConfigError);
  bad = model::StripeReliability{};
  bad.tolerance = bad.width;
  EXPECT_THROW(model::mttdl(bad), ConfigError);
}

// --- two-level backend --------------------------------------------------------

core::ClusterConfig small_cluster() {
  core::ClusterConfig cc;
  cc.nodes = 5;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

core::JobRunner::BackendFactory twolevel_factory(core::TwoLevelConfig tl,
                                                 core::ClusterConfig cc) {
  return [tl, cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    core::PlannerConfig planner;
    planner.group_size = 4;  // RAID-5: a double failure is catastrophic
    return std::make_unique<core::TwoLevelBackend>(
        sim, cluster, core::ProtocolConfig{}, core::RecoveryConfig{},
        core::make_workload_factory(cc), tl, planner);
  };
}

TEST(TwoLevel, FlushesOnCadence) {
  core::JobConfig job;
  job.total_work = minutes(35);
  job.interval = minutes(5);
  job.lambda = 0.0;
  core::TwoLevelConfig tl;
  tl.flush_every = 3;
  const auto cc = small_cluster();
  core::JobRunner runner(job, cc, twolevel_factory(tl, cc));
  const auto result = runner.run();
  ASSERT_TRUE(result.finished);
  // 6 epochs commit (at 5..30 min); flushes after epochs 3 and 6.
  EXPECT_EQ(result.epochs, 6u);
  auto* backend = dynamic_cast<core::TwoLevelBackend*>(runner.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->flushed_epoch(), 6u);
  EXPECT_EQ(backend->level2_restores(), 0u);
}

TEST(TwoLevel, OrdinaryFailuresStayDiskless) {
  core::JobConfig job;
  job.total_work = minutes(40);
  job.interval = minutes(4);
  job.lambda = 1.0 / minutes(10);
  job.seed = 6;
  core::TwoLevelConfig tl;
  tl.flush_every = 2;
  const auto cc = small_cluster();
  core::JobRunner runner(job, cc, twolevel_factory(tl, cc));
  const auto result = runner.run();
  ASSERT_TRUE(result.finished);
  EXPECT_GT(result.failures, 0u);
  auto* backend = dynamic_cast<core::TwoLevelBackend*>(runner.backend());
  // Single-node failures are within RAID-5 tolerance: no L2 restores.
  EXPECT_EQ(backend->level2_restores(), 0u);
  EXPECT_EQ(result.job_restarts, 0u);
}

TEST(TwoLevel, CatastrophicLossFallsBackToNasInsteadOfScratch) {
  // Drive the catastrophe deterministically: checkpoint, flush, then kill
  // two member nodes of one group simultaneously.
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(9));
  const auto cc = small_cluster();
  auto workloads = core::make_workload_factory(cc);
  for (std::uint32_t n = 0; n < cc.nodes; ++n) cluster.add_node();
  for (std::uint32_t n = 0; n < cc.nodes; ++n)
    for (std::uint32_t v = 0; v < cc.vms_per_node; ++v)
      cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));

  core::TwoLevelConfig tl;
  tl.flush_every = 1;  // every epoch becomes durable
  core::PlannerConfig planner;
  planner.group_size = 4;
  core::TwoLevelBackend backend(sim, cluster, core::ProtocolConfig{},
                                core::RecoveryConfig{}, workloads, tl,
                                planner);
  for (cluster::NodeId nid : cluster.alive_nodes())
    cluster.node(nid).hypervisor().pause_all();
  backend.checkpoint(1, [](const core::EpochStats&) {});
  sim.run();
  ASSERT_EQ(backend.flushed_epoch(), 1u);
  const auto durable_content = [&] {
    std::map<vm::VmId, std::vector<std::byte>> out;
    for (vm::VmId vmid : cluster.all_vms())
      out[vmid] = cluster.machine(vmid).image().flatten();
    return out;
  }();

  cluster.advance_workloads(10.0);

  // Double node failure: nodes 0 and 1 (each hosts members of the wide
  // groups) — beyond RAID-5.
  std::vector<vm::VmId> lost = cluster.node(0).hypervisor().vm_ids();
  const auto lost1 = cluster.node(1).hypervisor().vm_ids();
  lost.insert(lost.end(), lost1.begin(), lost1.end());
  cluster.kill_node(0);
  backend.on_node_failure(0);
  cluster.kill_node(1);
  backend.on_node_failure(1);
  cluster.revive_node(0);
  cluster.revive_node(1);
  std::optional<core::RecoveryStats> stats;
  backend.handle_failure(lost, [&](const core::RecoveryStats& s) {
    stats = s;
  });
  sim.run();
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->success) << stats->reason;
  EXPECT_EQ(backend.level2_restores(), 1u);
  EXPECT_EQ(stats->epochs_rolled_back, 0u);  // level was fully current

  // Every VM is back with the durable content.
  for (const auto& [vmid, payload] : durable_content) {
    ASSERT_TRUE(cluster.locate(vmid).has_value()) << "vm " << vmid;
    EXPECT_EQ(cluster.machine(vmid).image().flatten(), payload)
        << "vm " << vmid;
  }
}

TEST(TwoLevel, Level2RestoreJournalsTheRollbackCut) {
  // Epochs commit at 3, 6 and 9 min of work and the NAS level holds epoch
  // 2 (flush_every = 2). Killing two members of one RAID-5 group at 10 min
  // defeats the diskless level, so recovery restores the NAS level one
  // epoch behind: the journal must show that cut as a kRollback of one
  // epoch, with the watermark back at 6 min.
  core::JobConfig job;
  job.total_work = minutes(15);
  job.interval = minutes(3);
  job.failure_schedule = {{minutes(10), 0}, {minutes(10), 1}};
  core::TwoLevelConfig tl;
  tl.flush_every = 2;
  const auto cc = small_cluster();
  core::JobRunner runner(job, cc, twolevel_factory(tl, cc));
  const auto result = runner.run();
  ASSERT_TRUE(result.finished);
  auto* backend = dynamic_cast<core::TwoLevelBackend*>(runner.backend());
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->level2_restores(), 1u);
  EXPECT_EQ(result.job_restarts, 0u);

  const core::Journal& journal = runner.journal();
  const core::Journal rollbacks =
      core::entries_of(journal, core::JournalKind::kRollback);
  ASSERT_EQ(rollbacks.size(), 1u);
  EXPECT_EQ(rollbacks[0].entry.value, 1u);
  EXPECT_DOUBLE_EQ(rollbacks[0].committed_work, minutes(6));
  EXPECT_EQ(core::count_of(journal, core::JournalKind::kJobRestart), 0u);
  core::expect_watermark_monotone(journal);
}

TEST(TwoLevel, EndToEndUnderHeavyFailures) {
  // Aggressive failures + occasional pre-commit crashes: the two-level
  // backend must still finish, and any level-2 fallback shows up as
  // rolled-back work rather than a scratch restart.
  core::JobConfig job;
  job.total_work = minutes(30);
  job.interval = minutes(3);
  job.lambda = 1.0 / minutes(8);
  job.seed = 21;
  core::TwoLevelConfig tl;
  tl.flush_every = 2;
  const auto cc = small_cluster();
  core::JobRunner runner(job, cc, twolevel_factory(tl, cc));
  const auto result = runner.run();
  ASSERT_TRUE(result.finished);
  EXPECT_GT(result.failures, 0u);
}

}  // namespace
}  // namespace vdc
