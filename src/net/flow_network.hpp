#pragma once
// Flow-level network model with max-min fair bandwidth sharing.
//
// The model is fluid: a flow is a number of bytes moving along a path of
// capacitated ports (NIC TX, NIC RX, a shared NAS uplink, a disk array...).
// Rates are max-min fair, as the classic water-filling algorithm gives
// them, in whole bytes per second:
//
//   repeat:
//     for each port p: share(p) = max(1, floor(residual(p) / unfixed(p)))
//     b = the smallest share; every port whose share is b saturates:
//     freeze all its unfixed flows at b; charge every port they traverse.
//
// Every flow is bottlenecked at some saturated port. This captures exactly
// the phenomenon the paper's Section V-B argues about: N checkpoint streams
// fanning into one NAS port each get capacity/N, while peer-to-peer
// exchange spreads the same bytes over many ports. The floor of 1 B/s keeps
// every flow finite-time-completable when a port carries more flows than
// it has bytes per second.
//
// A port saturates at a level if its share equals the level's at the start
// of that level (level-start semantics): flows of the level that freeze
// through another port first do not raise its share within the level, even
// where the floor left a remainder that would. add_port() and
// set_capacity() round capacities to whole bytes per second, so shares are
// exact integers: two levels that are equal are equal bit for bit, and
// whether a port saturates at a level never hinges on rounding.
//
// Every flow start/finish/cancel and capacity change only updates the
// adjacency and marks the ports it touches dirty. Once the instant is over
// (every event at now() has fired, see Simulator::at_instant_end), one
// sweep re-solves the rates from the dirty ports, and the completion timer
// is re-armed once. Max-min rates depend only on the final flow set, and
// no rate moves within an instant, so every flow gets the rate and the
// completion time an immediate re-solve after each change would have left
// it with. Rates are therefore defined at instant boundaries: flow_rate()
// read between two changes of one instant returns the rate of the last
// boundary (0 for a flow started in this instant), and code outside the
// event loop finishes the instant with sim().run_until(sim().now()).
//
// A change reaches only the flows whose bottleneck it moves (the
// bottleneck structure of max-min fairness: Ros-Giralt et al., SIGMETRICS
// 2020), so the sweep is local:
//
//   - Kept state. Each flow keeps its rate (its level) and a bottleneck
//     port on its path whose share equals that rate; each port keeps its
//     share, the rate its bottlenecked flows froze at (kNone when it
//     bottlenecks none).
//   - A port's walk. A port's share is recomputed from its own flows in
//     ascending rate order: a flow whose rate is below the running share
//     froze at a lower level and is subtracted; the rest, and every flow
//     the port bottlenecks, are at the port's level.
//   - The sweep. The dirty ports seed a min-heap of port events in share
//     order, as water-filling visits levels. A port whose old share passes
//     without saturating releases the flows it bottlenecked, which makes
//     the other ports on their paths walk again; a port that saturates
//     freezes its level's flows at its share. Only a flow whose rate moves
//     (or that was released) makes the other ports on its path walk again,
//     so propagation stops at every port whose share comes back unchanged.
//
// The sweep visits levels in the order water-filling does and a walk is
// the same integer arithmetic, so its rates are the water-filling rates
// exactly, with no tolerance: tests/flow_solver_equivalence_test.cpp keeps
// a plain level-by-level loop over for_each_flow() as an independent
// oracle and compares every rate with ==. DESIGN.md section 6 gives the
// argument.
//
// Cost model. A re-solve costs O(R * d log d) for the R ports of degree d
// that the instant's changes reach, plus O(log n) per flow whose rate
// moves; nothing walks a connected component. Progress is lazy: a flow
// keeps its bytes left as of its last rate change and its predicted
// finish `due`, and only a rate change settles it and pushes a new
// completion entry. The completion timer takes finished flows off the heap
// in FlowId order. Superseded entries stay behind as stale ones, and once
// they outnumber the live ones the heap is rebuilt from the active flows
// (amortized O(1) per entry pushed), so it holds at most 2 x active + 1024
// entries.

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {

using PortId = std::uint32_t;
/// A flow's start sequence number (from 1) over its slot index (the low
/// 24 bits): ids ascend in start order, no id equals kInvalidFlow, and a
/// stale id never names the slot's next occupant.
using FlowId = std::uint64_t;
constexpr FlowId kInvalidFlow = 0;

class FlowNetwork {
 public:
  using Callback = std::function<void()>;

  explicit FlowNetwork(simkit::Simulator& sim);
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Create a capacitated port (bytes/sec), rounded to whole bytes per
  /// second. Throws ConfigError under 1 B/s or above 2^53 B/s.
  PortId add_port(Rate capacity);

  /// Change a port's capacity (e.g. degrade a failing link), rounded and
  /// checked as add_port's. The rates are re-solved at the end of the
  /// instant.
  void set_capacity(PortId port, Rate capacity);

  Rate capacity(PortId port) const;

  /// Start a flow of `bytes` along `path` (in traversal order). `latency`
  /// is a fixed head latency before the first byte moves. `on_complete`
  /// fires when the last byte is delivered. A zero-byte flow completes
  /// after just the latency.
  FlowId start_flow(std::vector<PortId> path, Bytes bytes,
                    Callback on_complete, SimTime latency = 0.0);

  /// Abort a flow (e.g. its endpoint failed). The completion callback is
  /// dropped. Returns true if the flow was active or still in latency.
  bool cancel_flow(FlowId id);

  /// Number of flows currently transferring (excludes latency stage).
  std::size_t active_flows() const { return active_.size(); }

  /// Flows still waiting out their head latency.
  std::size_t pending_flows() const { return pending_flows_; }

  /// Invoked whenever the flow population changes (start, latency
  /// activation, completion, cancel). The Fabric uses it to keep the
  /// `net.active_flows` gauge current.
  void set_count_hook(std::function<void()> hook) {
    count_hook_ = std::move(hook);
  }

  /// Max-min rate of a flow as of the last instant boundary, a whole
  /// number of bytes per second (0 if unknown/inactive, or started in the
  /// current instant).
  Rate flow_rate(FlowId id) const;

  simkit::Simulator& sim() { return sim_; }

  // --- solver introspection --------------------------------------------------
  /// Calls `fn(id, path)` for every active flow, in no particular order:
  /// the read-only view the tests' from-scratch solver works from.
  void for_each_flow(
      const std::function<void(FlowId, const std::vector<PortId>&)>& fn)
      const {
    for (std::uint32_t s : active_) fn(flows_[s].id, flows_[s].path);
  }

  /// The solver's work counters (for benches and tests); both move only
  /// when an instant ends. solver_solves(): instants whose changes left a
  /// dirty port with flows, each re-solved by one sweep.
  /// solver_flows_solved(): flows a sweep froze or released and froze
  /// again, those that came back at their old rate included.
  std::uint64_t solver_solves() const { return solver_solves_; }
  std::uint64_t solver_flows_solved() const { return solver_flows_solved_; }

  /// Entries in the completion heap, stale ones included.
  std::size_t completion_entries() const { return completions_.size(); }

 private:
  /// Whole bytes per second: capacities, shares and rates.
  using Bps = std::int64_t;
  /// The share of a port that bottlenecks no flow, and the rate a sweep's
  /// walk gives a flow that is at every level (released, or new).
  static constexpr Bps kNone = std::numeric_limits<Bps>::max();
  static constexpr PortId kNoPort = std::numeric_limits<PortId>::max();
  struct Port {
    /// Slots of the active flows crossing this port (the solver's
    /// adjacency), once per path occurrence, unordered.
    std::vector<std::uint32_t> flows;
    Bps cap = 0;
    /// The rate the flows it bottlenecks froze at; kNone when it
    /// bottlenecks none.
    Bps share = kNone;
    // Sweep state, valid while sweep == sweep_epoch_.
    std::uint64_t sweep = 0;
    Bps old_share = kNone;  // share before the sweep; kNone once passed
    Bps fresh = kNone;      // share under the flows' current rates
    Bps key = kNone;        // its queued event (a lower bound); kNone if none
    bool stale = false;      // `fresh` predates a lowered flow rate
    bool saturated = false;  // froze its level in this sweep
  };
  /// No rate change predicts a negative finish, so a flow's first rate
  /// always pushes its completion entry.
  static constexpr SimTime kNeverSolved = -1.0;
  struct Flow {
    FlowId id = kInvalidFlow;  // kInvalidFlow while the slot is free
    std::vector<PortId> path;
    double remaining = 0.0;  // bytes still to move at `since`
    SimTime since = 0.0;     // when `rate` took effect
    Bps rate = 0;            // 0 until its first solve
    /// Predicted finish time of the flow's one current completion-heap
    /// entry; an entry with any other time is stale.
    SimTime due = kNeverSolved;
    /// A sweep that released or froze the flow; `frozen` is valid while
    /// sweep == sweep_epoch_ (released flows are not).
    std::uint64_t sweep = 0;
    /// A port on the path whose share equals `rate`; kNoPort if none.
    PortId bottleneck = kNoPort;
    /// Index into active_ while the flow transfers.
    std::uint32_t active_at = 0;
    bool frozen = false;
    /// The head-latency event while the flow waits it out, else invalid.
    simkit::EventId latency_event = simkit::kInvalidEvent;
    Callback on_complete;
  };
  /// Completion-heap entry: predicted absolute finish time under the rate
  /// current when it was pushed.
  struct Completion {
    SimTime at;
    FlowId id;
    bool operator>(const Completion& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  static constexpr int kSlotBits = 24;
  static std::uint32_t slot_of(FlowId id) {
    return static_cast<std::uint32_t>(id & ((FlowId{1} << kSlotBits) - 1));
  }
  /// True while `id` names a flow, active or in latency.
  bool live(FlowId id) const {
    return id != kInvalidFlow && slot_of(id) < flows_.size() &&
           flows_[slot_of(id)].id == id;
  }
  /// Empty the flow's slot and return it to the free list.
  void free_slot(std::uint32_t slot);

  /// Register end_instant() with the simulator, once per instant.
  void end_instant_later();
  /// The instant's one re-solve: resolve_rates(), then re-arm the
  /// completion timer.
  void end_instant();
  /// Sweep from the dirty ports.
  void resolve_rates();

  // --- the sweep -------------------------------------------------------------
  /// Port `p`'s share under its flows' current rates (kNone if every flow
  /// froze below its level).
  Bps port_level(PortId p);
  /// Bring port `p` into the sweep.
  void enter(PortId p);
  /// A flow at `p` was released or added, or `p` changed: its share may
  /// drop, so queue it at its next event now.
  void touch(PortId p);
  /// A flow at `p` froze at a lower rate: its share can only rise, so its
  /// queued event stays a lower bound.
  void lowered(PortId p);
  /// Queue `p` at `key`, which the sweep must not have passed.
  void queue(PortId p, Bps key);
  /// Freeze port `p`'s level at its share.
  void saturate(PortId p);
  /// Port `p`'s old share passed: release the flows it bottlenecked.
  void pass(PortId p);
  /// Give a flow rate `rate` with bottleneck `p`.
  void freeze(std::uint32_t slot, Bps rate, PortId p);
  /// Settle the flow's bytes left at its old rate, then predict its finish
  /// at `rate` and push that completion entry.
  void set_rate(Flow& f, Bps rate);
  /// A flow's rate as the sweep sees it: kNone until (re)frozen.
  Bps effective_rate(const Flow& f) const {
    if (f.sweep == sweep_epoch_) return f.frozen ? f.rate : kNone;
    return f.rate == 0 ? kNone : f.rate;
  }
  /// The rate port `p`'s walk sees: a flow `p` bottlenecks is at its
  /// level, wherever that level moves.
  Bps walk_rate(const Flow& f, PortId p) const {
    return f.bottleneck == p ? kNone : effective_rate(f);
  }

  /// Mark ports dirty and have the instant end with a re-solve.
  void mark_dirty(const std::vector<PortId>& path);
  /// Enter an active flow into active_ and its ports' lists, or leave.
  void link(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void push_completion(Completion c);
  void pop_completion();
  /// Rebuild the completion heap from the live entries once stale ones
  /// outnumber them.
  void maybe_compact_completions();
  /// Point the timer at the earliest live completion entry; a timer
  /// already armed for that time is kept.
  void schedule_next_completion();
  void on_timer();
  void activate(std::uint32_t slot);
  void notify_count();

  simkit::Simulator& sim_;
  std::vector<Port> ports_;
  /// Flow slots, recycled through free_slots_ (LIFO); active_ lists the
  /// slots of the transferring flows, densely.
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> active_;
  std::size_t pending_flows_ = 0;
  std::uint64_t next_seq_ = 1;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  SimTime timer_at_ = 0.0;  // when timer_ fires, while it is pending
  bool instant_end_pending_ = false;
  std::function<void()> count_hook_;

  std::vector<PortId> dirty_ports_;
  /// Min-heap on (at, id), kept with the std::*_heap algorithms.
  std::vector<Completion> completions_;
  std::uint64_t solver_solves_ = 0;
  std::uint64_t solver_flows_solved_ = 0;

  // Sweep scratch, reused across sweeps.
  std::uint64_t sweep_epoch_ = 0;
  Bps sweep_at_ = 0;  // the last event's share
  /// Active flows without a rate: new ones, and those released in the
  /// current sweep; every sweep ends with none.
  std::size_t unfrozen_ = 0;
  std::vector<PortId> touched_;
  /// Min-heap of (share, port) events, stale ones skipped on pop.
  std::vector<std::pair<Bps, PortId>> events_;
  std::vector<Bps> rates_;  // a port's walk, ascending
};

}  // namespace vdc::net
