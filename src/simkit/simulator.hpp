#pragma once
// Deterministic discrete-event simulation core.
//
// The simulator owns a virtual clock and an event queue. Events scheduled
// for the same instant fire in schedule order (FIFO), which — together with
// the seeded Rng — makes every run bit-reproducible. All higher-level
// substrates (network flows, disks, failures, the DVDC protocol) are built
// as callbacks over this engine.
//
// Pending events live in a binary min-heap ordered by (time, id): id
// order breaks same-time ties, which gives the FIFO contract every
// substrate depends on. Cancelled events leave tombstones in the heap;
// when tombstones outnumber live events the heap is compacted in place,
// so cancel-heavy timer workloads (heartbeats, retransmits) no longer
// grow it unboundedly.

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::simkit {

using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() : telemetry_(&now_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// The simulation's telemetry context: every substrate built over this
  /// engine (network, storage, protocol, recovery) records its metrics and
  /// spans here, stamped with simulated time.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Schedule `cb` at absolute time `t` (>= now). Returns a cancellable id.
  EventId at(SimTime t, Callback cb);

  /// Schedule `cb` after `dt` seconds (dt >= 0).
  EventId after(SimTime dt, Callback cb) { return at(now_ + dt, std::move(cb)); }

  /// Cancel a pending event. Returns true if it was still pending.
  bool cancel(EventId id);

  /// True if `id` refers to a still-pending event.
  bool pending(EventId id) const { return callbacks_.count(id) != 0; }

  /// Number of pending events.
  std::size_t pending_count() const { return callbacks_.size(); }

  /// Execute the next event, if any. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains or `max_events` have fired.
  void run(std::uint64_t max_events = ~0ull);

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  /// Total events executed so far (for determinism checks and budgets).
  std::uint64_t executed() const { return executed_; }

  /// Events cancelled so far (mirrored to `sim.events.cancelled`).
  std::uint64_t cancelled() const { return cancelled_; }

  /// High-water mark of queue entries, tombstones included (mirrored to
  /// `sim.queue.peak`).
  std::size_t queue_peak() const { return queue_peak_; }

  /// Entries currently in the queue (live + tombstones); tests use it to
  /// observe tombstone compaction.
  std::size_t queue_entries() const { return queue_.size(); }

  /// Tombstone compactions performed (`sim.queue.compactions`).
  std::uint64_t compactions() const { return compactions_; }

 private:
  struct Entry {
    SimTime t = 0.0;
    EventId id = kInvalidEvent;
    /// Heap order: the greater (time, id) sinks, so top() is the minimum.
    bool operator>(const Entry& o) const {
      if (t != o.t) return t > o.t;
      return id > o.id;
    }
  };
  using Heap =
      std::priority_queue<Entry, std::vector<Entry>, std::greater<>>;
  struct Pending {
    SimTime t = 0.0;  // kept so compaction can rebuild live entries
    Callback cb;
  };

  /// Rebuild the queue from live events once tombstones dominate.
  void maybe_compact();
  /// Mirror the queue counters into the metrics registry (called at the
  /// end of run()/run_until(), not per event — scheduling stays cheap).
  void publish_metrics();

  SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_peak_ = 0;
  Heap queue_;
  std::unordered_map<EventId, Pending> callbacks_;
  telemetry::Telemetry telemetry_;
};

}  // namespace vdc::simkit
