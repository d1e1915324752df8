// Tests for the discrete-event engine: ordering, cancellation, clock
// semantics, and the FCFS resource.

#include <gtest/gtest.h>

#include <vector>

#include "simkit/resource.hpp"
#include "simkit/simulator.hpp"

namespace vdc::simkit {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(3.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.at(5.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  double fired_at = -1.0;
  sim.at(10.0, [&] {
    sim.after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelFromInsideEvent) {
  Simulator sim;
  bool fired = false;
  const EventId victim = sim.at(2.0, [&] { fired = true; });
  sim.at(1.0, [&] { sim.cancel(victim); });
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilAdvancesClockExactly) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(5.0, [&] { ++fired; });
  sim.run_until(3.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilWithCancelledHead) {
  Simulator sim;
  const EventId id = sim.at(1.0, [] {});
  sim.cancel(id);
  bool fired = false;
  sim.at(10.0, [&] { fired = true; });
  sim.run_until(5.0);  // must not stop at the tombstone
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Simulator, PastSchedulingThrows) {
  Simulator sim;
  sim.at(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(1.0, [] {}), InvariantError);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.after(1.0, recurse);
  };
  sim.after(0.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(sim.now(), 99.0);
}

TEST(Simulator, MaxEventsBudget) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.after(1.0, forever); };
  sim.after(0.0, forever);
  sim.run(50);
  EXPECT_EQ(sim.executed(), 50u);
}

TEST(Simulator, TombstoneCompactionBoundsQueue) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 4096; ++i)
    ids.push_back(sim.at(1.0 + i, [] {}));
  EXPECT_EQ(sim.queue_entries(), 4096u);
  // Cancel-heavy timer churn: without compaction every tombstone would
  // stay in the queue until its time came up.
  for (int i = 0; i < 4000; ++i) sim.cancel(ids[i]);
  EXPECT_EQ(sim.pending_count(), 96u);
  EXPECT_LT(sim.queue_entries(), 1024u);  // compacted down to live events
  EXPECT_GE(sim.compactions(), 1u);
  sim.run();
  EXPECT_EQ(sim.executed(), 96u);  // survivors still fire
}

TEST(Simulator, CancelAndQueueMetricsPublished) {
  Simulator sim;
  const EventId a = sim.at(1.0, [] {});
  sim.at(2.0, [] {});
  sim.at(3.0, [] {});
  sim.cancel(a);
  sim.run();
  const auto& metrics = sim.telemetry().metrics();
  EXPECT_DOUBLE_EQ(metrics.value("sim.events.cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(metrics.value("sim.queue.peak"), 3.0);
  EXPECT_EQ(sim.queue_peak(), 3u);
  EXPECT_EQ(sim.cancelled(), 1u);
}

TEST(Resource, ServesFcfs) {
  Simulator sim;
  Resource r(sim, 1);
  std::vector<std::pair<int, double>> done;
  for (int i = 0; i < 3; ++i)
    r.serve(2.0, [&, i] { done.emplace_back(i, sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].first, 0);
  EXPECT_DOUBLE_EQ(done[0].second, 2.0);
  EXPECT_DOUBLE_EQ(done[1].second, 4.0);
  EXPECT_DOUBLE_EQ(done[2].second, 6.0);
}

TEST(Resource, CapacityTwoOverlaps) {
  Simulator sim;
  Resource r(sim, 2);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) r.serve(3.0, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0], 3.0);
  EXPECT_DOUBLE_EQ(done[1], 3.0);
  EXPECT_DOUBLE_EQ(done[2], 6.0);
  EXPECT_DOUBLE_EQ(done[3], 6.0);
}

TEST(Resource, ManualAcquireRelease) {
  Simulator sim;
  Resource r(sim, 1);
  bool second_ran = false;
  r.acquire([&] {
    EXPECT_EQ(r.in_use(), 1u);
    sim.after(5.0, [&] { r.release(); });
  });
  r.acquire([&] { second_ran = true; });
  sim.run();
  EXPECT_TRUE(second_ran);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(Resource, ReleaseWithoutAcquireThrows) {
  Simulator sim;
  Resource r(sim, 1);
  EXPECT_THROW(r.release(), InvariantError);
}

TEST(Resource, BusyTimeTracksUtilisation) {
  Simulator sim;
  Resource r(sim, 1);
  r.serve(4.0, [] {});
  sim.run();
  EXPECT_NEAR(r.busy_time(), 4.0, 1e-9);
}

TEST(Resource, ZeroCapacityRejected) {
  Simulator sim;
  EXPECT_THROW(Resource(sim, 0), ConfigError);
}

TEST(Resource, QueueLengthVisible) {
  Simulator sim;
  Resource r(sim, 1);
  for (int i = 0; i < 5; ++i) r.serve(1.0, [] {});
  // One request is admitted asynchronously; the rest queue.
  sim.run(1);
  EXPECT_GE(r.queue_length(), 3u);
  sim.run();
  EXPECT_EQ(r.queue_length(), 0u);
}

}  // namespace
}  // namespace vdc::simkit
