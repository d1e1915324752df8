// Lossy-network fuzz regime: every seed runs a checkpointed job over an
// ambient unreliable fabric (drops, bit corruption, jittered latency on
// every host) with chunked exchange/recovery streams. The invariants:
// the job always finishes, the committed-work watermark never silently
// regresses, and the reliable-delivery layer actually earned its keep
// (retransmissions happened). Rides the `slow` label; the nightly
// sanitizer job widens the sweep with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/runtime.hpp"
#include "fuzz_seeds.hpp"
#include "journal_audit.hpp"

namespace vdc::core {
namespace {

ClusterConfig lossy_cluster() {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

JobRunner::BackendFactory chunked_backend(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    ProtocolConfig pc;
    pc.chunking.chunk_bytes = kib(4);  // judged frames on the wire
    pc.chunking.pipeline_depth = 4;
    RecoveryConfig rc;
    rc.chunking = pc.chunking;
    return std::make_unique<DvdcBackend>(sim, cluster, pc, rc,
                                         make_workload_factory(cc));
  };
}

class LossyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(LossyFuzz, FinishesWithMonotoneCommittedWork) {
  const int seed = GetParam();
  JobConfig job;
  job.total_work = minutes(20);
  job.interval = minutes(3);
  job.lambda = 1.0 / minutes(8);  // real failures on top of the loss
  job.seed = static_cast<std::uint64_t>(seed);
  // The lossy regime: 1% drops, 0.1% corruption, jittered latency, on
  // every frame of every host (probabilities compose per path).
  job.ambient_link_fault = net::LinkFault{
      .drop = 0.01, .corrupt = 0.001, .jitter = 200e-6};

  const ClusterConfig cc = lossy_cluster();
  JobRunner runner(job, cc, chunked_backend(cc));
  const RunResult r = runner.run();
  const auto& metrics = runner.sim().telemetry().metrics();

  ASSERT_TRUE(r.finished) << "seed " << seed;
  SCOPED_TRACE("seed " + std::to_string(seed));
  expect_watermark_monotone(runner.journal());
  EXPECT_GE(r.time_ratio, 1.0 - 1e-9);
  // The fabric really was lossy, and the reliable-delivery layer carried
  // the checkpoints through it.
  EXPECT_GT(metrics.value("net.drops"), 0.0) << "seed " << seed;
  EXPECT_GT(metrics.value("net.retransmits"), 0.0) << "seed " << seed;
  // Every VM is back and running at the end.
  EXPECT_EQ(runner.cluster().all_vms().size(),
            std::size_t{cc.nodes} * cc.vms_per_node);
  for (vm::VmId vmid : runner.cluster().all_vms())
    EXPECT_EQ(runner.cluster().machine(vmid).state(), vm::VmState::Running);
}

TEST_P(LossyFuzz, ReplayIsBitIdentical) {
  const int seed = GetParam();
  JobConfig job;
  job.total_work = minutes(12);
  job.interval = minutes(2);
  job.lambda = 1.0 / minutes(6);
  job.seed = static_cast<std::uint64_t>(seed) * 6007;
  job.ambient_link_fault = net::LinkFault{
      .drop = 0.01, .corrupt = 0.001, .jitter = 200e-6};

  const ClusterConfig cc = lossy_cluster();
  JobRunner a(job, cc, chunked_backend(cc));
  JobRunner b(job, cc, chunked_backend(cc));
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_TRUE(ra.finished && rb.finished) << "seed " << seed;
  EXPECT_DOUBLE_EQ(ra.completion, rb.completion);
  EXPECT_EQ(ra.failures, rb.failures);
  EXPECT_EQ(ra.epochs, rb.epochs);
  EXPECT_EQ(ra.bytes_shipped, rb.bytes_shipped);
  EXPECT_DOUBLE_EQ(a.sim().telemetry().metrics().value("net.retransmits"),
                   b.sim().telemetry().metrics().value("net.retransmits"));
}

std::vector<int> seeds() {
  std::vector<int> out;
  for (int i = 1; i <= fuzz_seed_count(8); ++i) out.push_back(i);
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyFuzz, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace vdc::core
