// Tests for the adaptive checkpoint-interval policy and the bursty/skewed
// workload models it responds to.

#include <gtest/gtest.h>

#include <cmath>

#include "core/adaptive.hpp"
#include "core/baseline.hpp"
#include "core/runtime.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

EpochStats stats_with(SimTime overhead, SimTime latency) {
  EpochStats s;
  s.overhead = overhead;
  s.latency = latency;
  return s;
}

TEST(AdaptivePolicy, ConvergesToYoungForConstantCost) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  AdaptiveIntervalPolicy policy(config);
  SimTime interval = policy.initial_interval();
  for (int i = 0; i < 20; ++i)
    interval = policy.next_interval(stats_with(10.0, 10.0));
  EXPECT_NEAR(interval, std::sqrt(2.0 * 10.0 / 1e-4), 1.0);
}

TEST(AdaptivePolicy, CheapEpochsShrinkTheInterval) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  AdaptiveIntervalPolicy policy(config);
  SimTime expensive = 0, cheap = 0;
  for (int i = 0; i < 10; ++i)
    expensive = policy.next_interval(stats_with(60.0, 60.0));
  for (int i = 0; i < 10; ++i)
    cheap = policy.next_interval(stats_with(0.04, 0.04));
  EXPECT_LT(cheap, expensive / 5.0);
}

TEST(AdaptivePolicy, TracksACostStep) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  AdaptiveIntervalPolicy policy(config);
  for (int i = 0; i < 10; ++i) policy.next_interval(stats_with(1.0, 1.0));
  const SimTime before = policy.cost_estimate();
  for (int i = 0; i < 10; ++i) policy.next_interval(stats_with(20.0, 20.0));
  EXPECT_GT(policy.cost_estimate(), before * 10.0);
}

TEST(AdaptivePolicy, EwmaWeighsTheNewestOverheadByAlpha) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  AdaptiveIntervalPolicy policy(config);
  // The first epoch seeds the estimate; latency is never the signal.
  policy.next_interval(stats_with(1.0, 100.0));
  EXPECT_DOUBLE_EQ(policy.cost_estimate(), 1.0);
  const SimTime next = policy.next_interval(stats_with(11.0, 500.0));
  const SimTime blended = kAdaptiveAlpha * 11.0 + (1.0 - kAdaptiveAlpha) * 1.0;
  EXPECT_DOUBLE_EQ(policy.cost_estimate(), blended);  // 4.0 at alpha 0.3
  EXPECT_DOUBLE_EQ(next, std::sqrt(2.0 * blended / config.lambda));
}

TEST(AdaptivePolicy, RespectsClamps) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  config.min_interval = 30.0;
  config.max_interval = 60.0;
  AdaptiveIntervalPolicy policy(config);
  EXPECT_DOUBLE_EQ(policy.next_interval(stats_with(1e-9, 1e-9)), 30.0);
  AdaptiveIntervalPolicy policy2(config);
  EXPECT_DOUBLE_EQ(policy2.next_interval(stats_with(1e6, 1e6)), 60.0);
}

TEST(AdaptivePolicy, HeldBytesBackPressureShortensInterval) {
  AdaptiveConfig config;
  config.lambda = 1e-4;
  config.held_highwater = mib(1);
  AdaptiveIntervalPolicy policy(config);

  // Every epoch below costs 10 s, so the estimate stays 10 s at any alpha.
  EpochStats calm = stats_with(10.0, 10.0);
  calm.held_egress_peak = kib(256);  // under the mark: pure Young
  const SimTime base = policy.next_interval(calm);
  EXPECT_NEAR(base, std::sqrt(2.0 * 10.0 / 1e-4), 1.0);

  // 4x overshoot -> the interval that caused it shrinks by 4x.
  EpochStats hot = calm;
  hot.held_egress_peak = mib(4);
  const SimTime capped = policy.next_interval(hot);
  EXPECT_NEAR(capped, base / 4.0, 1.0);

  // Extreme overshoot still respects the floor.
  EpochStats blown = calm;
  blown.held_egress_peak = gib(4);
  EXPECT_DOUBLE_EQ(policy.next_interval(blown), config.min_interval);

  // Calm epochs recover the cap by doubling — NOT an instant jump back
  // to Young (which would oscillate between a calm short epoch and a
  // buffer-blowing long one).
  EXPECT_DOUBLE_EQ(policy.next_interval(calm), 2.0 * config.min_interval);
  EXPECT_DOUBLE_EQ(policy.next_interval(calm), 4.0 * config.min_interval);

  // highwater = 0 disables the term entirely.
  AdaptiveConfig off = config;
  off.held_highwater = 0;
  AdaptiveIntervalPolicy relaxed(off);
  EXPECT_NEAR(relaxed.next_interval(blown), base, 1.0);
}

TEST(AdaptivePolicy, InvalidConfigRejected) {
  AdaptiveConfig bad;
  bad.lambda = 0.0;
  EXPECT_THROW(AdaptiveIntervalPolicy{bad}, ConfigError);
  bad = AdaptiveConfig{};
  bad.max_interval = bad.min_interval;
  EXPECT_THROW(AdaptiveIntervalPolicy{bad}, ConfigError);
}

TEST(JobRunner, PolicyDrivesIntervals) {
  // With an adaptive policy and cheap COW epochs, the runner should take
  // many more checkpoints than the (huge) fixed default would.
  ClusterConfig cc;
  cc.nodes = 3;
  cc.vms_per_node = 1;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 10.0;

  JobConfig job;
  job.total_work = minutes(30);
  job.interval = hours(10);  // would mean zero checkpoints...
  AdaptiveConfig ac;
  ac.lambda = 1.0 / minutes(10);
  ac.initial = minutes(2);
  ac.min_interval = seconds(30);
  job.adaptive_interval = ac;
  job.lambda = 0.0;

  auto factory = [cc](simkit::Simulator& sim,
                      cluster::ClusterManager& cluster,
                      Rng&) -> std::unique_ptr<CheckpointBackend> {
    return std::make_unique<DvdcBackend>(sim, cluster, ProtocolConfig{},
                                         RecoveryConfig{},
                                         make_workload_factory(cc));
  };
  JobRunner runner(job, cc, factory);
  const RunResult result = runner.run();
  ASSERT_TRUE(result.finished);
  // Young for 40 ms overhead at MTBF 10 min is ~7 s -> clamped to 30 s;
  // a 30-minute job then takes dozens of checkpoints.
  EXPECT_GT(result.epochs, 20u);
}

TEST(Workload, PhasedAlternatesRates) {
  vm::MemoryImage img(64, 4096);
  Rng rng(8);
  vm::PhasedWorkload w(1000.0, 0.0, /*phase_length=*/10.0);
  EXPECT_DOUBLE_EQ(w.write_rate(), 500.0);

  // Phase A: writes happen.
  w.advance(img, 10.0, rng);
  const std::size_t after_a = img.dirty_count();
  EXPECT_GT(after_a, 500u);
  // Phase B: silence.
  w.advance(img, 10.0, rng);
  EXPECT_EQ(img.dirty_count(), after_a);
  // Phase A again.
  w.advance(img, 10.0, rng);
  EXPECT_GT(img.dirty_count(), after_a);
}

TEST(Workload, PhasedHandlesPartialSteps) {
  vm::MemoryImage img(64, 4096);
  Rng rng(9);
  vm::PhasedWorkload w(100.0, 0.0, 1.0);
  // 0.4s steps straddle phase boundaries; total active time = 5 of 10 s.
  for (int i = 0; i < 25; ++i) w.advance(img, 0.4, rng);
  // ~500 writes expected (100/s for 5 s).
  EXPECT_GT(img.dirty_count(), 300u);
  EXPECT_LT(img.dirty_count(), 600u);
}

TEST(Workload, PhasedCurrentRateReports) {
  vm::PhasedWorkload w(10.0, 20.0, 5.0);
  EXPECT_DOUBLE_EQ(w.current_rate(), 10.0);
  vm::MemoryImage img(64, 16);
  Rng rng(10);
  w.advance(img, 5.0, rng);
  EXPECT_DOUBLE_EQ(w.current_rate(), 20.0);
}

}  // namespace
}  // namespace vdc::core
