// Output-commit property fuzz: serving under failures, lossy fabric and
// partitions. The invariant, per seed: a client never observes a response
// from an epoch that did not commit — every delivery's cut is <= the
// commit watermark at delivery time — client-visible downtime is
// recorded whenever the cluster failed over with traffic flowing, and
// every resend fired exactly one client_timeout after the send before it
// (each delivery's attempt count fits its timing). Rides
// the `slow` label; the nightly job widens the sweep with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include "core/runtime.hpp"
#include "fuzz_seeds.hpp"

namespace vdc::core {
namespace {

ClusterConfig serving_cluster() {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

workload::TrafficConfig serving_traffic() {
  workload::TrafficConfig tc;
  tc.clients_per_guest = 1000;
  tc.streams_per_guest = 2;
  tc.think_time = 20.0;  // aggregate: one request / 20 ms per stream
  tc.client_timeout = 2.0;
  tc.response_bytes = kib(2);
  tc.record_deliveries = true;
  return tc;
}

JobRunner::BackendFactory chunked_backend(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    ProtocolConfig pc;
    pc.chunking.chunk_bytes = kib(4);
    pc.chunking.pipeline_depth = 4;
    RecoveryConfig rc;
    rc.chunking = pc.chunking;
    return std::make_unique<DvdcBackend>(sim, cluster, pc, rc,
                                         make_workload_factory(cc));
  };
}

void check_invariants(JobRunner& runner, const RunResult& r) {
  EXPECT_TRUE(r.finished);
  ASSERT_NE(runner.traffic(), nullptr);
  const auto& plane = *runner.traffic();
  const auto s = plane.summary();
  EXPECT_GT(s.delivered, 0u) << "no client was ever answered";
  // The output-commit invariant: only committed epochs ever reach a
  // client. (TrafficPlane::deliver also hard-asserts this at the hatch.)
  for (const auto& d : plane.deliveries())
    EXPECT_LE(d.cut, d.committed_at_delivery)
        << "request " << d.request << " observed an uncommitted epoch";
  // Every timeout resends, and a delivery's attempt count matches its
  // timing: attempt k went out at s_k, with s_1 = first_send and
  // s_{k+1} = s_k + client_timeout (the plane's own float additions), and
  // its response came back no later than attempt k's deadline.
  EXPECT_EQ(s.timeouts, s.retries);
  const SimTime timeout = serving_traffic().client_timeout;
  for (const auto& d : plane.deliveries()) {
    SimTime sent = d.first_send;
    for (std::uint32_t k = 1; k < d.attempts; ++k) sent += timeout;
    EXPECT_LE(sent, d.delivered_at) << "request " << d.request;
    EXPECT_LE(d.delivered_at, sent + timeout) << "request " << d.request;
  }
  if (r.failures > 0) {
    // At least one failover struck with traffic flowing: the rollback
    // must have been client-visible (timeouts and retries, and a
    // downtime window that closed on the first post-recovery delivery).
    EXPECT_GT(s.timeouts + s.retries, 0u);
  }
}

class ServingLossyFuzz : public ::testing::TestWithParam<int> {};

// Lossy regime: ambient drops/corruption/jitter on every host (requests
// and responses ride the same judged fault plane as checkpoint frames)
// plus real Poisson node failures.
TEST_P(ServingLossyFuzz, CommittedPrefixOnly) {
  const int seed = GetParam();
  JobConfig job;
  job.total_work = minutes(6);
  job.interval = minutes(1);
  job.lambda = 1.0 / minutes(3);
  job.seed = static_cast<std::uint64_t>(seed);
  job.ambient_link_fault =
      net::LinkFault{.drop = 0.01, .corrupt = 0.001, .jitter = 200e-6};
  job.traffic = serving_traffic();

  const ClusterConfig cc = serving_cluster();
  JobRunner runner(job, cc, chunked_backend(cc));
  const RunResult r = runner.run();
  check_invariants(runner, r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingLossyFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count(6)));

class ServingPartitionFuzz : public ::testing::TestWithParam<int> {};

// Partition regime: wire-true heartbeat detection, a scripted partition
// that isolates a node (false-positive suspicion, fencing, zombie rejoin)
// plus a real mid-run kill. Clients keep retrying throughout.
TEST_P(ServingPartitionFuzz, CommittedPrefixOnly) {
  const int seed = GetParam();
  JobConfig job;
  job.total_work = minutes(5);
  job.interval = minutes(1);
  job.seed = static_cast<std::uint64_t>(seed);
  job.heartbeat = cluster::HeartbeatConfig{};

  using SF = failure::ScheduledFailure;
  SF part;
  part.at = 70.0 + seed;  // vary the strike point across seeds
  part.node = 2;
  part.kind = SF::Kind::kPartition;
  part.group = 1;
  SF heal;
  heal.at = part.at + 20.0;
  heal.node = SF::kAllNodes;
  heal.kind = SF::Kind::kHeal;
  SF kill;
  kill.at = part.at + 60.0;
  kill.node = 1;
  kill.kind = SF::Kind::kFail;
  job.failure_schedule = {part, heal, kill};
  job.traffic = serving_traffic();

  const ClusterConfig cc = serving_cluster();
  JobRunner runner(job, cc, chunked_backend(cc));
  const RunResult r = runner.run();
  check_invariants(runner, r);
  EXPECT_GE(r.failures + static_cast<std::uint32_t>(
                             runner.sim().telemetry().metrics().value(
                                 "job.suspected_failures")),
            1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServingPartitionFuzz,
                         ::testing::Range(1, 1 + fuzz_seed_count(6)));

}  // namespace
}  // namespace vdc::core
