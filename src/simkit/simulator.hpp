#pragma once
// Deterministic discrete-event simulation core.
//
// The simulator owns a virtual clock and an event queue. Events scheduled
// for the same instant fire in schedule order (FIFO), which — together with
// the seeded Rng — makes every run bit-reproducible. All higher-level
// substrates (network flows, disks, failures, the DVDC protocol) are built
// as callbacks over this engine.
//
// An instant is every event at one simulated time. Work registered with
// at_instant_end() runs once the current instant is over: after every event
// at now() has fired, including events scheduled for now() while it ran,
// and before the clock moves on. Such work takes no queue entry and is not
// counted as an event. A substrate that batches changes (the flow network
// re-solves its rates once per instant) uses it, so state it derives is
// defined at instant boundaries, not after each event. Code outside the
// event loop finishes the current instant with run_until(now()).
//
// Pending events live in a binary min-heap ordered by (time, seq): `seq`
// counts schedules, which gives the same-time FIFO contract every
// substrate depends on. Callbacks live in a slot vector recycled through a
// free list, so `cancel` and `pending` are O(1). Cancelled events leave
// tombstones in the heap, told apart by one array load (their slot no
// longer holds their seq); when tombstones outnumber live events they are
// filtered out of the heap's vector in place, so cancel-heavy timer
// workloads (heartbeats, retransmits) do not grow it unboundedly. Neither
// the heap nor the slots reallocate except to grow, so the memory they
// hold follows the peak number of pending events, not the cancel pattern.

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/units.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::simkit {

/// A slot index (low 32 bits) and that slot's generation (high 32, never
/// 0), so no id equals kInvalidEvent and a stale id never names the slot's
/// next occupant.
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
  bool pending(EventId id) const;

  /// Number of pending events.
  std::size_t pending_count() const { return live_; }

  /// Run `cb` at the end of the current instant: once no event is pending
  /// at now(), before the clock advances. End-of-instant work runs in
  /// registration order, one callback at a time; an event it schedules at
  /// now() fires before the next one, and work it registers runs in the
  /// same instant.
  void at_instant_end(Callback cb);

  /// Execute the next event, if any, first running any end-of-instant work
  /// that is due before it. Returns false when the queue is empty (and no
  /// end-of-instant work is left).
  bool step();

  /// Run until the event queue drains or `max_events` have fired.
  void run(std::uint64_t max_events = ~0ull);

  /// Run all events with time <= t and the end-of-instant work of every
  /// instant up to t, then advance the clock to exactly t. Never fires an
  /// event later than t.
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
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    /// Heap order: the greater (time, seq) sinks, so front() is the minimum.
    bool operator>(const Entry& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  struct Slot {
    std::uint64_t seq = 0;  // the pending occupant's seq; 0 when free
    std::uint32_t gen = 1;  // bumped whenever the slot is freed
    Callback cb;
  };

  bool live(const Entry& e) const { return slots_[e.slot].seq == e.seq; }
  /// Free a pending event's slot and hand back its callback.
  Callback release(std::uint32_t slot);
  /// The next live event, after running the end-of-instant work due before
  /// it; nullptr when none is left.
  const Entry* next_event();
  /// Pop and execute the queue's head, which must be live.
  void fire_head();
  /// Drop the tombstones from the queue once they dominate.
  void maybe_compact();
  /// Mirror the queue counters into the metrics registry (called at the
  /// end of run()/run_until(), not per event — scheduling stays cheap).
  void publish_metrics();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t queue_peak_ = 0;
  std::size_t live_ = 0;
  std::vector<Entry> queue_;  // binary min-heap (std::push_heap order)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // reused LIFO
  std::deque<Callback> instant_end_;
  telemetry::Telemetry telemetry_;
};

}  // namespace vdc::simkit
