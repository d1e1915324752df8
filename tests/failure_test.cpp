// Tests for failure distributions and injectors.

#include <gtest/gtest.h>

#include <memory>

#include "common/stats.hpp"
#include "failure/distributions.hpp"
#include "failure/injector.hpp"

namespace vdc::failure {
namespace {

TEST(Distributions, ExponentialMeanIsMtbf) {
  Rng rng(1);
  ExponentialTtf ttf(1.0 / 100.0);
  EXPECT_DOUBLE_EQ(ttf.mtbf(), 100.0);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.add(ttf.sample(rng));
  EXPECT_NEAR(stats.mean(), 100.0, 2.0);
}

TEST(Distributions, FromMtbf) {
  auto ttf = ExponentialTtf::from_mtbf(hours(3));
  EXPECT_NEAR(ttf.rate(), 9.26e-5, 1e-7);
}

TEST(Distributions, WeibullMtbfMatchesGamma) {
  Rng rng(2);
  WeibullTtf ttf(2.0, 100.0);  // mean = 100 * Gamma(1.5) ~= 88.62
  EXPECT_NEAR(ttf.mtbf(), 88.62, 0.01);
  RunningStats stats;
  for (int i = 0; i < 40000; ++i) stats.add(ttf.sample(rng));
  EXPECT_NEAR(stats.mean(), ttf.mtbf(), 2.0);
}

TEST(Distributions, WeibullShapeBelowOneHasHeavyTail) {
  Rng rng(3);
  WeibullTtf infant(0.5, 100.0);
  // shape 0.5: mean = 100 * Gamma(3) = 200.
  EXPECT_NEAR(infant.mtbf(), 200.0, 0.01);
}

TEST(Distributions, TraceReplaysAndCycles) {
  Rng rng(4);
  TraceTtf trace({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(trace.sample(rng), 1.0);
  EXPECT_DOUBLE_EQ(trace.sample(rng), 2.0);
  EXPECT_DOUBLE_EQ(trace.sample(rng), 3.0);
  EXPECT_DOUBLE_EQ(trace.sample(rng), 1.0);  // cycles
  EXPECT_DOUBLE_EQ(trace.mtbf(), 2.0);
}

TEST(Distributions, InvalidParamsRejected) {
  EXPECT_THROW(ExponentialTtf(0.0), ConfigError);
  EXPECT_THROW(WeibullTtf(0.0, 1.0), ConfigError);
  EXPECT_THROW(TraceTtf({}), ConfigError);
  EXPECT_THROW(TraceTtf({1.0, 0.0}), ConfigError);
}

TEST(Distributions, EstimateMtbf) {
  EXPECT_DOUBLE_EQ(estimate_mtbf({2.0, 4.0, 6.0}), 4.0);
  EXPECT_THROW(estimate_mtbf({}), ConfigError);
}

TEST(ClusterInjector, AggregateRateAndUniformVictims) {
  simkit::Simulator sim;
  ClusterFailureInjector injector(
      sim, Rng(9), std::make_shared<ExponentialTtf>(1.0 / 10.0), 4);
  std::vector<NodeId> victims;
  injector.start([&](NodeId n) { victims.push_back(n); });
  sim.run_until(10000.0);
  injector.stop();
  // ~1000 failures expected.
  EXPECT_NEAR(static_cast<double>(victims.size()), 1000.0, 120.0);
  // Every node gets hit a fair share.
  std::array<int, 4> counts{};
  for (NodeId v : victims) ++counts.at(v);
  for (int c : counts) EXPECT_GT(c, 150);
}

TEST(ScheduledInjector, FiresExactNodesAtAbsoluteTimes) {
  simkit::Simulator sim;
  ScheduledFailureInjector injector(
      sim, {{5.0, 2}, {5.0, 3}, {12.5, 0}});
  std::vector<std::pair<NodeId, double>> fired;
  injector.start([&](NodeId n) { fired.emplace_back(n, sim.now()); });
  EXPECT_EQ(injector.remaining(), 3u);
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0], (std::pair<NodeId, double>{2, 5.0}));
  EXPECT_EQ(fired[1], (std::pair<NodeId, double>{3, 5.0}));
  EXPECT_EQ(fired[2], (std::pair<NodeId, double>{0, 12.5}));
  EXPECT_EQ(injector.failures_injected(), 3u);
  EXPECT_EQ(injector.remaining(), 0u);
  EXPECT_TRUE(injector.exact_targets());
}

TEST(ScheduledInjector, StopCancelsTheRest) {
  simkit::Simulator sim;
  ScheduledFailureInjector injector(sim, {{1.0, 0}, {2.0, 1}, {3.0, 2}});
  int count = 0;
  injector.start([&](NodeId) {
    if (++count == 2) injector.stop();
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(injector.remaining(), 1u);
}

TEST(ScheduledInjector, ReplaysBitIdentically) {
  std::vector<std::vector<std::pair<NodeId, double>>> runs;
  for (int i = 0; i < 2; ++i) {
    simkit::Simulator sim;
    ScheduledFailureInjector injector(sim, {{4.0, 1}, {9.0, 2}});
    auto& fired = runs.emplace_back();
    injector.start([&](NodeId n) { fired.emplace_back(n, sim.now()); });
    sim.run();
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(ScheduledInjector, ParsesScheduleText) {
  const auto schedule = ScheduledFailureInjector::parse(
      "# drill: double failure, then a late straggler\n"
      "360 2\n"
      "362.5 5\n"
      "\n"
      "900 2  # node 2 again\n");
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_DOUBLE_EQ(schedule[0].at, 360.0);
  EXPECT_EQ(schedule[0].node, 2u);
  EXPECT_DOUBLE_EQ(schedule[1].at, 362.5);
  EXPECT_EQ(schedule[1].node, 5u);
  EXPECT_DOUBLE_EQ(schedule[2].at, 900.0);
  EXPECT_EQ(schedule[2].node, 2u);
}

TEST(ScheduledInjector, ParseRejectsMalformedInput) {
  EXPECT_THROW(ScheduledFailureInjector::parse("360\n"), InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("abc 1\n"), InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("-5 1\n"), InvariantError);
  // Out-of-order times are a schedule bug, not a sorting request.
  EXPECT_THROW(ScheduledFailureInjector::parse("10 1\n5 2\n"),
               InvariantError);
}

TEST(ScheduledInjector, ParsesLinkFaultEvents) {
  const auto schedule = ScheduledFailureInjector::parse(
      "# gray link, then a NIC-wide brownout\n"
      "link 10 2 3 drop=0.25 corrupt=0.01 latency=0.002 jitter=0.0005\n"
      "link 20 4 - drop=0.5 rate=0.25\n");
  ASSERT_EQ(schedule.size(), 2u);
  using Kind = ScheduledFailure::Kind;
  EXPECT_EQ(schedule[0].kind, Kind::kLink);
  EXPECT_DOUBLE_EQ(schedule[0].at, 10.0);
  EXPECT_EQ(schedule[0].node, 2u);
  EXPECT_EQ(schedule[0].peer, 3u);
  EXPECT_DOUBLE_EQ(schedule[0].drop, 0.25);
  EXPECT_DOUBLE_EQ(schedule[0].corrupt, 0.01);
  EXPECT_DOUBLE_EQ(schedule[0].latency, 0.002);
  EXPECT_DOUBLE_EQ(schedule[0].jitter, 0.0005);
  EXPECT_DOUBLE_EQ(schedule[0].rate, 1.0);
  // "-" peer = the whole NIC, every direction.
  EXPECT_EQ(schedule[1].peer, ScheduledFailure::kAllNodes);
  EXPECT_DOUBLE_EQ(schedule[1].drop, 0.5);
  EXPECT_DOUBLE_EQ(schedule[1].rate, 0.25);
}

TEST(ScheduledInjector, ParsesPartitionHealRepairAndMixedKinds) {
  const auto schedule = ScheduledFailureInjector::parse(
      "fail 5 1\n"
      "partition 10 3 1\n"
      "heal 20 3\n"
      "repair 25 1\n"
      "heal 30 all\n"
      "40 2\n");  // legacy bare form still means fail
  ASSERT_EQ(schedule.size(), 6u);
  using Kind = ScheduledFailure::Kind;
  EXPECT_EQ(schedule[0].kind, Kind::kFail);
  EXPECT_EQ(schedule[0].node, 1u);
  EXPECT_EQ(schedule[1].kind, Kind::kPartition);
  EXPECT_EQ(schedule[1].node, 3u);
  EXPECT_EQ(schedule[1].group, 1u);
  EXPECT_EQ(schedule[2].kind, Kind::kHeal);
  EXPECT_EQ(schedule[2].node, 3u);
  EXPECT_EQ(schedule[3].kind, Kind::kRepair);
  EXPECT_EQ(schedule[3].node, 1u);
  EXPECT_EQ(schedule[4].kind, Kind::kHeal);
  EXPECT_EQ(schedule[4].node, ScheduledFailure::kAllNodes);
  EXPECT_EQ(schedule[5].kind, Kind::kFail);
  EXPECT_EQ(schedule[5].node, 2u);
}

TEST(ScheduledInjector, ParseRejectsMalformedEvents) {
  // Unknown keyword / key, bad probabilities, missing fields.
  EXPECT_THROW(ScheduledFailureInjector::parse("jiggle 5 1\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("link 5 1 2 wobble=1\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("link 5 1 2 drop=1.5\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("link 5 1 2 rate=0\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("partition 5 1\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("repair 5\n"), InvariantError);
  // Out-of-order times are rejected across kinds, too.
  EXPECT_THROW(
      ScheduledFailureInjector::parse("partition 10 1 1\nfail 5 2\n"),
      InvariantError);
}

TEST(ScheduledInjector, ParsesLeaderTargetedEvents) {
  // Leader-targeted events name no node: the victim is whoever holds the
  // control-plane lease when the event fires, so `node` parses to the
  // kAllNodes sentinel and resolution happens at fire time.
  const auto schedule = ScheduledFailureInjector::parse(
      "kill-leader at 10\n"
      "kill-leader 20\n"  // the "at" is optional, as with other kinds
      "partition-leader at 30 2\n"
      "partition-leader 40 1\n"
      "heal 50 all\n");
  ASSERT_EQ(schedule.size(), 5u);
  using Kind = ScheduledFailure::Kind;
  EXPECT_EQ(schedule[0].kind, Kind::kKillLeader);
  EXPECT_DOUBLE_EQ(schedule[0].at, 10.0);
  EXPECT_EQ(schedule[0].node, ScheduledFailure::kAllNodes);
  EXPECT_EQ(schedule[1].kind, Kind::kKillLeader);
  EXPECT_DOUBLE_EQ(schedule[1].at, 20.0);
  EXPECT_EQ(schedule[1].node, ScheduledFailure::kAllNodes);
  EXPECT_EQ(schedule[2].kind, Kind::kPartitionLeader);
  EXPECT_DOUBLE_EQ(schedule[2].at, 30.0);
  EXPECT_EQ(schedule[2].node, ScheduledFailure::kAllNodes);
  EXPECT_EQ(schedule[2].group, 2u);
  EXPECT_EQ(schedule[3].kind, Kind::kPartitionLeader);
  EXPECT_EQ(schedule[3].group, 1u);
}

TEST(ScheduledInjector, ParseRejectsMalformedLeaderTargets) {
  // A leader event naming an explicit victim is a contradiction — clear
  // error, not a silent ignore.
  EXPECT_THROW(ScheduledFailureInjector::parse("kill-leader at 10 3\n"),
               InvariantError);
  EXPECT_THROW(
      ScheduledFailureInjector::parse("partition-leader at 10 1 3\n"),
      InvariantError);
  // Missing fields.
  EXPECT_THROW(ScheduledFailureInjector::parse("kill-leader\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("kill-leader at\n"),
               InvariantError);
  EXPECT_THROW(ScheduledFailureInjector::parse("partition-leader at 10\n"),
               InvariantError);
  // Group 0 means "connected" — partitioning into it is a no-op typo.
  EXPECT_THROW(ScheduledFailureInjector::parse("partition-leader at 10 0\n"),
               InvariantError);
  // Times must still be non-decreasing across leader events.
  EXPECT_THROW(
      ScheduledFailureInjector::parse("kill-leader at 10\nfail 5 2\n"),
      InvariantError);
}

TEST(ScheduledInjector, DispatchesNonFailureEventsToEventCallback) {
  simkit::Simulator sim;
  ScheduledFailureInjector injector(
      sim, ScheduledFailureInjector::parse("fail 1 0\n"
                                           "partition 2 1 1\n"
                                           "heal 3 1\n"
                                           "repair 4 0\n"));
  std::vector<NodeId> failures;
  std::vector<std::pair<ScheduledFailure::Kind, double>> events;
  injector.set_on_event([&](const ScheduledFailure& ev) {
    events.emplace_back(ev.kind, sim.now());
  });
  injector.start([&](NodeId n) { failures.push_back(n); });
  sim.run();
  // Only real failures reach the failure callback (and count as such).
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0], 0u);
  EXPECT_EQ(injector.failures_injected(), 1u);
  using Kind = ScheduledFailure::Kind;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0], (std::pair<Kind, double>{Kind::kPartition, 2.0}));
  EXPECT_EQ(events[1], (std::pair<Kind, double>{Kind::kHeal, 3.0}));
  EXPECT_EQ(events[2], (std::pair<Kind, double>{Kind::kRepair, 4.0}));
}

TEST(ClusterInjector, StopFromCallback) {
  simkit::Simulator sim;
  ClusterFailureInjector injector(
      sim, Rng(10), std::make_shared<TraceTtf>(std::vector<SimTime>{1.0}),
      2);
  int count = 0;
  injector.start([&](NodeId) {
    if (++count == 3) injector.stop();
  });
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace vdc::failure
