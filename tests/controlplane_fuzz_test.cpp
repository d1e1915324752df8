// Seed-sweep fuzz of the replicated control plane under coordinator
// faults: random leader kills, leader partitions (with later heals) and
// ambient message loss. Whatever the history, the audited raft invariants
// must hold — at most one leader (and one commit-advancing leader) per
// term, committed epoch numbers gap-free and monotone per job
// incarnation, pairwise-consistent committed log prefixes — the job must
// finish, and the committed-work watermark must never silently regress.
//
// Oracle detection mode on purpose: killed replicas are revived when the
// recovery attempt starts, so the quorum always comes back and an
// election can settle (with wire-true detection a dead replica stays down
// until a scripted repair — the partition_drill suite covers that side).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/runtime.hpp"
#include "failure/injector.hpp"
#include "fuzz_seeds.hpp"
#include "journal_audit.hpp"

namespace vdc::core {
namespace {

ClusterConfig fuzz_cluster() {
  ClusterConfig cc;
  cc.nodes = 6;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

JobRunner::BackendFactory dvdc_factory(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    return std::make_unique<DvdcBackend>(sim, cluster, ProtocolConfig{},
                                         RecoveryConfig{},
                                         make_workload_factory(cc));
  };
}

/// Random leader-targeted drill: kills and partition/heal pairs at
/// increasing times, early enough that the job can still finish.
std::string random_drill(Rng& rng) {
  std::string script;
  char buf[64];
  double t = 30.0 + rng.uniform(0.0, 40.0);
  const int events = 2 + static_cast<int>(rng.uniform_u64(3));
  for (int i = 0; i < events && t < 360.0; ++i) {
    if (rng.chance(0.5)) {
      std::snprintf(buf, sizeof(buf), "kill-leader at %.3f\n", t);
      script += buf;
    } else {
      std::snprintf(buf, sizeof(buf), "partition-leader at %.3f 1\n", t);
      script += buf;
      t += 5.0 + rng.uniform(0.0, 10.0);
      std::snprintf(buf, sizeof(buf), "heal %.3f all\n", t);
      script += buf;
    }
    t += 25.0 + rng.uniform(0.0, 40.0);
  }
  return script;
}

struct FuzzOutcome {
  RunResult result;
  std::uint64_t elections = 0;
  std::uint64_t view_epoch = 0;
  Journal journal;
};

FuzzOutcome run_drill(int seed, bool check_invariants = true) {
  Rng script_rng(0xC0FFEEull + static_cast<std::uint64_t>(seed) * 7919);
  JobConfig job;
  job.total_work = minutes(8);
  job.interval = minutes(1);
  job.seed = 1000 + static_cast<std::uint64_t>(seed);
  job.control = controlplane::ControlPlaneConfig{};
  job.failure_schedule =
      failure::ScheduledFailureInjector::parse(random_drill(script_rng));
  if (seed % 2 == 0) {
    net::LinkFault ambient;
    ambient.drop = 0.002;
    ambient.corrupt = 0.002;
    job.ambient_link_fault = ambient;
  }

  JobRunner runner(job, fuzz_cluster(), dvdc_factory(fuzz_cluster()));
  FuzzOutcome out;
  out.result = runner.run();
  out.journal = runner.journal();
  auto* cp = runner.control();
  EXPECT_NE(cp, nullptr);
  out.elections = cp->elections();
  if (check_invariants) {
    EXPECT_TRUE(out.result.finished) << "seed " << seed;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_watermark_monotone(out.journal);
    EXPECT_TRUE(cp->election_safety_ok()) << "seed " << seed;
    EXPECT_TRUE(cp->epoch_sequence_ok()) << "seed " << seed;
    EXPECT_TRUE(cp->logs_consistent()) << "seed " << seed;
    // The surviving leader's replayed view agrees with the data plane
    // about what committed (both reset together on a job restart).
    if (cp->leader().has_value()) {
      out.view_epoch = cp->leader_view()->committed_epoch;
      EXPECT_EQ(out.view_epoch, runner.backend()->committed_epoch())
          << "seed " << seed;
    }
  }
  return out;
}

class ControlPlaneFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ControlPlaneFuzz, SafetyInvariantsHoldUnderLeaderFaults) {
  const int seed = GetParam();
  const FuzzOutcome out = run_drill(seed);
  // Every drill schedules at least one leader-targeted event; unless all
  // of them fizzled in an election gap, elections must have happened.
  if (out.result.failures > 0) {
    EXPECT_GE(out.elections, 1u);
  }

  // Determinism spot-check: a replay of the same seed is bit-identical.
  if (seed % 4 == 0) {
    const FuzzOutcome again = run_drill(seed, /*check_invariants=*/false);
    EXPECT_DOUBLE_EQ(again.result.completion, out.result.completion);
    EXPECT_EQ(again.result.epochs, out.result.epochs);
    EXPECT_EQ(again.result.failures, out.result.failures);
    EXPECT_EQ(again.elections, out.elections);
    EXPECT_EQ(again.journal, out.journal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlPlaneFuzz,
                         ::testing::Range(0, fuzz_seed_count(8)));

}  // namespace
}  // namespace vdc::core
