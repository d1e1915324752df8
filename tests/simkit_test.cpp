// Tests for the discrete-event engine: ordering, cancellation, clock
// semantics, end-of-instant work, slot reuse (a randomized differential
// run against a plain sorted model), and the FCFS resource.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "fuzz_seeds.hpp"
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

TEST(Simulator, StaleIdMissesReusedSlot) {
  Simulator sim;
  std::vector<int> fired;
  const EventId cancelled = sim.at(1.0, [&] { fired.push_back(0); });
  ASSERT_TRUE(sim.cancel(cancelled));
  // The freed slot goes to the next event; the old id must not name it.
  const EventId reuser = sim.at(2.0, [&] { fired.push_back(1); });
  EXPECT_NE(reuser, cancelled);
  EXPECT_FALSE(sim.pending(cancelled));
  EXPECT_FALSE(sim.cancel(cancelled));
  EXPECT_TRUE(sim.pending(reuser));
  sim.run();
  // Same for an id whose event ran: its slot is reused at once.
  const EventId after_run = sim.at(3.0, [&] { fired.push_back(2); });
  EXPECT_FALSE(sim.pending(reuser));
  EXPECT_FALSE(sim.cancel(reuser));
  EXPECT_TRUE(sim.pending(after_run));
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.cancelled(), 1u);
}

TEST(Simulator, CancelOfExecutingEventIsNoOp) {
  Simulator sim;
  EventId self = kInvalidEvent;
  bool child_fired = false;
  self = sim.at(1.0, [&] {
    EXPECT_FALSE(sim.pending(self));
    // The child takes the slot this event just gave up.
    sim.after(1.0, [&] { child_fired = true; });
    EXPECT_FALSE(sim.cancel(self));
  });
  sim.run();
  EXPECT_TRUE(child_fired);
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_EQ(sim.cancelled(), 0u);
}

TEST(Simulator, SameTimeFifoAcrossReusedSlots) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(sim.at(1.0 + i, [] {}));
  // Free slots out of order, so the next schedules reuse them scattered.
  for (int i : {7, 2, 9, 4}) ASSERT_TRUE(sim.cancel(ids[i]));
  std::vector<int> order;
  for (int i = 0; i < 6; ++i)
    sim.at(20.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Simulator, IdsAreNeverInvalid) {
  Simulator sim;
  EXPECT_FALSE(sim.pending(kInvalidEvent));
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  // Churn one slot through many generations, then many slots at once.
  for (int i = 0; i < 2000; ++i) {
    const EventId id = sim.after(1.0, [] {});
    EXPECT_NE(id, kInvalidEvent);
    if (i % 2 == 0)
      sim.cancel(id);
    else
      sim.run();
  }
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) ids.push_back(sim.after(1.0, [] {}));
  for (EventId id : ids) EXPECT_NE(id, kInvalidEvent);
  EXPECT_FALSE(sim.pending(kInvalidEvent));
}

// --- end-of-instant work ----------------------------------------------------
//
// at_instant_end() work runs once every event at now() has fired,
// including events scheduled for now() while the instant ran, and before
// the clock advances. Each test drives the same scenario through step(),
// run() and run_until().

enum class Drive { kStep, kRun, kRunUntil };
const char* drive_name(Drive d) {
  return d == Drive::kStep ? "step" : d == Drive::kRun ? "run" : "run_until";
}
void drive(Simulator& sim, Drive d) {
  switch (d) {
    case Drive::kStep:
      while (sim.step()) {
      }
      break;
    case Drive::kRun:
      sim.run();
      break;
    case Drive::kRunUntil:
      sim.run_until(100.0);
      break;
  }
}

TEST(InstantEnd, RunsAfterEveryEventAtNowAndBeforeTheClockMoves) {
  for (const Drive d : {Drive::kStep, Drive::kRun, Drive::kRunUntil}) {
    SCOPED_TRACE(drive_name(d));
    Simulator sim;
    std::vector<std::string> order;
    const auto note = [&](const char* what) {
      order.push_back(what + std::string("@") + std::to_string(sim.now()));
    };
    sim.at(1.0, [&] {
      note("a");
      sim.at_instant_end([&] { note("end"); });
      sim.after(0.0, [&] { note("c"); });  // joins this instant
    });
    sim.at(1.0, [&] { note("b"); });
    sim.at(2.0, [&] { note("d"); });
    drive(sim, d);
    EXPECT_EQ(order, (std::vector<std::string>{"a@1.000000", "b@1.000000",
                                                "c@1.000000", "end@1.000000",
                                                "d@2.000000"}));
    EXPECT_EQ(sim.executed(), 4u);  // end-of-instant work is not an event
  }
}

TEST(InstantEnd, StepRunsTheWorkBeforeTheNextInstantsEvent) {
  Simulator sim;
  std::vector<int> order;
  sim.at(1.0, [&] {
    order.push_back(1);
    sim.at_instant_end([&] { order.push_back(-1); });
  });
  sim.at(1.0, [&] { order.push_back(2); });
  sim.at(3.0, [&] { order.push_back(3); });
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1}));  // an event at now is still due
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{1, 2, -1, 3}));
  EXPECT_FALSE(sim.step());
}

TEST(InstantEnd, WorkThatSchedulesAtNowOrDefersAgainDrainsFirst) {
  for (const Drive d : {Drive::kStep, Drive::kRun, Drive::kRunUntil}) {
    SCOPED_TRACE(drive_name(d));
    Simulator sim;
    std::vector<std::string> order;
    const auto note = [&](const char* what) {
      order.push_back(what + std::string("@") + std::to_string(sim.now()));
    };
    sim.at(1.0, [&] {
      note("a");
      sim.at_instant_end([&] {
        note("end1");
        sim.after(0.0, [&] {
          note("e");
          sim.at_instant_end([&] { note("end3"); });
        });
        sim.at_instant_end([&] { note("end2"); });
      });
    });
    sim.at(2.0, [&] { note("d"); });
    drive(sim, d);
    // end1's event fires before end2, which was registered after it; the
    // work e registers still runs at t=1.
    EXPECT_EQ(order, (std::vector<std::string>{
                         "a@1.000000", "end1@1.000000", "e@1.000000",
                         "end2@1.000000", "end3@1.000000", "d@2.000000"}));
  }
}

TEST(InstantEnd, WorkRegisteredOutsideTheLoopRunsBeforeTheClockMoves) {
  for (const Drive d : {Drive::kStep, Drive::kRun, Drive::kRunUntil}) {
    SCOPED_TRACE(drive_name(d));
    Simulator sim;
    double ran_at = -1.0;
    sim.at(5.0, [] {});
    sim.run_until(2.0);
    sim.at_instant_end([&] { ran_at = sim.now(); });
    drive(sim, d);
    EXPECT_DOUBLE_EQ(ran_at, 2.0);
  }
  // With no event left at all, step() still runs it (and reports no event).
  Simulator sim;
  bool ran = false;
  sim.at_instant_end([&] { ran = true; });
  EXPECT_FALSE(sim.step());
  EXPECT_TRUE(ran);
}

TEST(InstantEnd, RunUntilFinishesTheLastInstantItReaches) {
  Simulator sim;
  std::vector<std::string> order;
  sim.at(1.0, [&] {
    order.push_back("a");
    sim.at_instant_end([&] { order.push_back("end"); });
  });
  sim.at(3.0, [&] { order.push_back("d"); });
  sim.run_until(1.0);  // t is the instant's own time
  EXPECT_EQ(order, (std::vector<std::string>{"a", "end"}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  // run_until(now()) finishes the current instant from outside the loop.
  sim.at(1.0, [&] { order.push_back("b"); });
  sim.at_instant_end([&] { order.push_back("end2"); });
  sim.run_until(sim.now());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "end", "b", "end2"}));
  EXPECT_EQ(sim.executed(), 2u);
}

// run_until(t) must never fire an event later than t, even when the
// instant's end cancels the head event it was about to stop at: checking
// the head against t and then stepping would run the work, find the next
// live event past t and fire it anyway.
TEST(InstantEnd, RunUntilNeverFiresPastTWhenTheWorkCancelsTheHead) {
  for (const bool from_event : {true, false}) {
    SCOPED_TRACE(from_event ? "registered by an event" : "registered outside");
    Simulator sim;
    std::vector<int> fired;
    const EventId head = sim.at(1.5, [&] { fired.push_back(15); });
    sim.at(3.0, [&] { fired.push_back(30); });
    const auto cancel_head = [&] { EXPECT_TRUE(sim.cancel(head)); };
    if (from_event) {
      sim.at(1.0, [&] {
        fired.push_back(10);
        sim.at_instant_end(cancel_head);
      });
    } else {
      sim.at_instant_end(cancel_head);
    }
    sim.run_until(2.0);
    EXPECT_DOUBLE_EQ(sim.now(), 2.0);
    EXPECT_EQ(fired, from_event ? std::vector<int>{10} : std::vector<int>{});
    sim.run();
    EXPECT_EQ(fired, from_event ? (std::vector<int>{10, 30})
                                : std::vector<int>{30});
  }
}

TEST(InstantEnd, RunBudgetCountsEventsOnly) {
  Simulator sim;
  int ends = 0;
  std::function<void()> tick = [&] {
    sim.at_instant_end([&] { ++ends; });
    sim.after(1.0, tick);
  };
  sim.after(0.0, tick);
  sim.run(10);
  EXPECT_EQ(sim.executed(), 10u);
  // Nine instants ended; the tenth is still open after its one event.
  EXPECT_EQ(ends, 9);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

// Randomized differential run: drive at/cancel/step/run_until/
// at_instant_end on the simulator and on a plain sorted model of it, with
// events and end-of-instant work that cancel events, schedule children
// (end-of-instant work often at now) and register more end-of-instant
// work from inside their callbacks, and compare the fire order, clock,
// counters and every pending() answer.
class SortedModel {
 public:
  double now = 0.0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;

  void at(double t, int label) {
    const Key key{std::max(t, now), next_seq_++, label};
    queue_.insert(key);
    live_.emplace(label, key);
  }
  void at_instant_end(int label) { instant_end_.push_back(label); }
  /// The oldest end-of-instant work, once no event is due at now; else -1.
  int pop_instant_end() {
    if (instant_end_.empty()) return -1;
    if (!queue_.empty() && std::get<0>(*queue_.begin()) <= now) return -1;
    const int label = instant_end_.front();
    instant_end_.pop_front();
    return label;
  }
  bool pending(int label) const { return live_.count(label) != 0; }
  bool cancel(int label) {
    const auto it = live_.find(label);
    if (it == live_.end()) return false;
    queue_.erase(it->second);
    live_.erase(it);
    ++cancelled;
    return true;
  }
  /// Pops the next event, or -1 when none is due by `until`.
  int pop(double until) {
    if (queue_.empty() || std::get<0>(*queue_.begin()) > until) return -1;
    const auto [t, seq, label] = *queue_.begin();
    queue_.erase(queue_.begin());
    live_.erase(label);
    now = std::max(now, t);
    ++executed;
    return label;
  }
  std::size_t size() const { return queue_.size(); }

 private:
  using Key = std::tuple<double, std::uint64_t, int>;  // (time, seq, label)
  std::set<Key> queue_;
  std::map<int, Key> live_;
  std::deque<int> instant_end_;
  std::uint64_t next_seq_ = 1;
};

/// What event `label` does when it fires, a pure function of the label so
/// the simulator and the model agree without sharing state.
struct Action {
  int cancel = -1;      // label to cancel, or -1
  double child = -1.0;  // delay of a child event, or -1
  bool instant_end = false;  // register end-of-instant work
};
Action action_of(std::uint64_t seed, int label) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(label));
  Action a;
  if (rng.chance(0.3) && label > 0)
    a.cancel = label - 1 - static_cast<int>(rng.next() % std::min(label, 64));
  if (rng.chance(0.3)) a.child = 0.5 * static_cast<double>(rng.next() % 5);
  a.instant_end = rng.chance(0.15);
  return a;
}
/// What end-of-instant work `label` does, given how many events exist.
Action end_action_of(std::uint64_t seed, int label, int events) {
  Rng rng(seed * 0xc2b2ae3d27d4eb4full + static_cast<std::uint64_t>(label));
  Action a;
  if (rng.chance(0.4) && events > 0)
    a.cancel = events - 1 - static_cast<int>(rng.next() % std::min(events, 64));
  if (rng.chance(0.4)) a.child = 0.5 * static_cast<double>(rng.next() % 3);
  a.instant_end = rng.chance(0.2);
  return a;
}

TEST(Simulator, DifferentialAgainstSortedModel) {
  const int seeds = fuzz_seed_count(20);
  std::uint64_t compactions = 0;
  int instant_ends = 0;
  for (int seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE(seed);
    const auto useed = static_cast<std::uint64_t>(seed);
    Simulator sim;
    SortedModel model;
    Rng rng(useed);
    std::vector<EventId> ids;  // by label
    int model_labels = 0;
    int end_labels = 0;  // end-of-instant work, fired as -1 - label
    int model_end_labels = 0;
    std::vector<int> fired_sim;
    std::vector<int> fired_model;

    std::function<void(double)> schedule_sim;
    std::function<void()> instant_end_sim = [&] {
      const int label = end_labels++;
      sim.at_instant_end([&, label] {
        fired_sim.push_back(-1 - label);
        const Action a =
            end_action_of(useed, label, static_cast<int>(ids.size()));
        if (a.cancel >= 0) sim.cancel(ids[a.cancel]);
        if (a.child >= 0.0) schedule_sim(sim.now() + a.child);
        if (a.instant_end) instant_end_sim();
      });
    };
    schedule_sim = [&](double t) {
      const int label = static_cast<int>(ids.size());
      ids.push_back(sim.at(t, [&, label] {
        fired_sim.push_back(label);
        const Action a = action_of(useed, label);
        if (a.cancel >= 0) sim.cancel(ids[a.cancel]);
        if (a.child >= 0.0) schedule_sim(sim.now() + a.child);
        if (a.instant_end) instant_end_sim();
      }));
    };
    // Fires the model's next event due by `until`, after the end-of-instant
    // work due before it; false when no event is due.
    const auto step_model = [&](double until) {
      for (int end = model.pop_instant_end(); end >= 0;
           end = model.pop_instant_end()) {
        fired_model.push_back(-1 - end);
        const Action a = end_action_of(useed, end, model_labels);
        if (a.cancel >= 0) model.cancel(a.cancel);
        if (a.child >= 0.0) model.at(model.now + a.child, model_labels++);
        if (a.instant_end) model.at_instant_end(model_end_labels++);
      }
      const int label = model.pop(until);
      if (label < 0) return false;
      fired_model.push_back(label);
      const Action a = action_of(useed, label);
      if (a.cancel >= 0) model.cancel(a.cancel);
      if (a.child >= 0.0) model.at(model.now + a.child, model_labels++);
      if (a.instant_end) model.at_instant_end(model_end_labels++);
      return true;
    };
    const auto schedule_both = [&] {
      const double t = model.now + 0.5 * static_cast<double>(rng.next() % 40);
      schedule_sim(t);
      model.at(t, model_labels++);
    };

    // A standing population first, so cancels can trigger compaction.
    for (int i = 0; i < 1500; ++i) schedule_both();
    for (int op = 0; op < 4000; ++op) {
      const double pick = rng.uniform();
      if (pick < 0.45) {
        schedule_both();
      } else if (pick < 0.8) {
        const int label = static_cast<int>(rng.next() % ids.size());
        ASSERT_EQ(sim.pending(ids[label]), model.pending(label));
        ASSERT_EQ(sim.cancel(ids[label]), model.cancel(label));
      } else if (pick < 0.81) {
        // A cancel sweep over a label range: tombstones pile up and the
        // heap compacts.
        const std::size_t lo = rng.next() % ids.size();
        for (std::size_t label = lo; label < std::min(lo + 1200, ids.size());
             ++label)
          ASSERT_EQ(sim.cancel(ids[label]),
                    model.cancel(static_cast<int>(label)));
      } else if (pick < 0.94) {
        ASSERT_EQ(sim.step(), step_model(1e300));
      } else if (pick < 0.96) {
        instant_end_sim();  // from outside the loop
        model.at_instant_end(model_end_labels++);
      } else {
        const double until =
            model.now + 0.5 * static_cast<double>(rng.next() % 6);
        sim.run_until(until);
        while (step_model(until)) {
        }
        model.now = until;
      }
      ASSERT_EQ(ids.size(), static_cast<std::size_t>(model_labels));
      ASSERT_EQ(end_labels, model_end_labels);
      ASSERT_EQ(fired_sim, fired_model);
      ASSERT_EQ(sim.now(), model.now);
      ASSERT_EQ(sim.pending_count(), model.size());
      ASSERT_EQ(sim.executed(), model.executed);
      ASSERT_EQ(sim.cancelled(), model.cancelled);
    }
    for (std::size_t label = 0; label < ids.size(); ++label)
      ASSERT_EQ(sim.pending(ids[label]),
                model.pending(static_cast<int>(label)));
    sim.run();
    while (step_model(1e300)) {
    }
    EXPECT_EQ(fired_sim, fired_model);
    EXPECT_EQ(sim.pending_count(), 0u);
    compactions += sim.compactions();
    instant_ends += end_labels;
  }
  EXPECT_GT(compactions, 0u);  // the runs exercised compaction
  EXPECT_GT(instant_ends, 0);  // and end-of-instant work
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
