#pragma once
// Flow-level network model with max-min fair bandwidth sharing.
//
// The model is fluid: a flow is a number of bytes moving along a path of
// capacitated ports (NIC TX, NIC RX, a shared NAS uplink, a disk array...).
// Whenever a flow starts, finishes or is cancelled, or a port's capacity
// changes, every active flow's progress is settled at its current rate,
// and at the end of that simulated instant the rates are recomputed with
// the classic water-filling algorithm:
//
//   repeat:
//     for each port p: share(p) = residual_capacity(p) / unfixed_flows(p)
//     pick the port with the smallest share; freeze all its unfixed flows
//     at that rate; charge every port they traverse.
//
// The result is the max-min fair allocation: every flow is bottlenecked at
// some saturated port. This captures exactly the phenomenon the paper's
// Section V-B argues about — N checkpoint streams fanning into one NAS port
// each get capacity/N, while peer-to-peer exchange spreads the same bytes
// over many ports.
//
// Max-min fairness decomposes over connected components of the bipartite
// flow/port graph: flows that share no port (even transitively) cannot
// influence each other's rates. Every flow start/finish/cancel and
// capacity change only settles progress, updates the adjacency and marks
// the ports it touches dirty. Once the instant is over (every event at
// now() has fired, see Simulator::at_instant_end), resolve_rates()
// re-solves the components the dirty ports belong to, once each, and the
// completion timer is re-armed once. Max-min rates depend only on each
// component's final flow set, and progress never moves within an instant,
// so the coalesced solve gives every flow the rate and the completion time
// an immediate re-solve after each change would have left it with. Rates
// are therefore defined at instant boundaries: flow_rate() read between
// two changes of one instant returns the rate of the last boundary (0 for
// a flow started in this instant), and code outside the event loop
// finishes the instant with sim().run_until(sim().now()) before reading.
//
// Components can still be large: a declustered layout spreads rebuild
// load over every survivor, which joins nearly all exchange and rebuild
// flows into one component. A change, though, reaches only the flows whose
// bottleneck it moves, so the instant's re-solve of a dirty component is
// local (the bottleneck structure of max-min fairness: Ros-Giralt et al.,
// SIGMETRICS 2020):
//
//   - Kept state. Each flow keeps its rate (its level) and a bottleneck
//     port on its path whose share equals that rate; each port keeps its
//     share, the rate its bottlenecked flows froze at (infinite when none
//     is).
//   - The local re-solve. The dirty ports seed a sweep that visits ports
//     in ascending share order, as water-filling would. A port's share is
//     recomputed from its own flows: walking them in ascending (rate, id)
//     order, each flow whose rate lies below the band of the running
//     share froze at a lower level and is subtracted, in the order and
//     with the float ops the full solve uses; the rest are at the port's
//     level. A port whose old share is passed without saturating releases
//     the flows it bottlenecked; a port that saturates freezes its level's
//     flows at its share. Only a flow whose rate moves (or that was
//     released) makes the other ports on its path recompute, so
//     propagation stops at every port whose share comes back bitwise
//     unchanged.
//   - The fallback. The 1e-12 band couples ports that share no flow: a
//     port whose share lies within the band of another level freezes at
//     that level in the full solve. So does a share that rounds into the
//     band while a level freezes. Whenever the sweep meets such a near tie
//     (a changed share within the band of another share of the component,
//     or a port's share within the band of one of its flows' rates, unless
//     other ports froze all its flows at that rate), or any step that
//     breaks its clean-case invariants, the component is re-solved by the
//     full water-filling (collect_component + solve_component) and the
//     fallback is counted. A full solve that itself leaves a near tie
//     marks its ports, and the component is solved in full until a solve
//     finds none.
//
// Both paths give bitwise the rates of the plain water-filling loop that
// tests/flow_solver_equivalence_test.cpp keeps as an independent oracle
// over for_each_flow(): the full solve runs its float ops on dense slot
// arrays, testing only each level's candidate flows; the local re-solve
// runs the same ops per port, and the near-tie checks are exactly the
// conditions under which the full solve's levels are separate. DESIGN.md
// section 6 gives the argument.
//
// Cost model. A local re-solve touches the ports and flows the change
// reaches: O(R * d log d) for R reached ports of degree d. What is still
// O(component) is the search that finds the dirty component, the
// comparison of each changed share with the component's others, and the
// refresh of each of its flows' predicted finish (`due`), which keeps
// every completion time, and so every simulated output, bit-identical.
// What is still O(active flows) is settle_progress() at the first change
// of each instant and the scan for finished flows on every completion
// timer. Lazy progress would remove the refresh and both walks together,
// and it moves the digests. A fallback costs a full solve of the
// component, O(F * path length * log F + L * P) for F flows, P ports and
// L levels.
//
// The completion heap stays bounded. Each live flow owns one current
// entry, at its predicted finish `due`. A solve pushes an entry only for a
// flow whose `due` it changed (a flow's first solve always does); when
// `due` comes back bit for bit the same, the live entry is already in the
// heap. Superseded entries stay behind as stale ones, and once they
// outnumber the live ones the heap is rebuilt, so it holds at most
// 2 x active + 1024 entries.

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

  /// Create a capacitated port (bytes/sec). Capacity must be positive.
  PortId add_port(Rate capacity);

  /// Change a port's capacity (e.g. degrade a failing link). The port's
  /// connected component is re-solved at the end of the instant.
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

  /// Max-min rate of a flow as of the last instant boundary (0 if
  /// unknown/inactive, or started in the current instant).
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

  /// The solver's work counters (for benches and tests); all move only
  /// when an instant ends. solver_solves(): dirty components re-solved.
  /// solver_flows_solved(): flows whose rate a re-solve recomputed, those
  /// that came back unchanged included; a fallback counts its whole
  /// component. solver_fallbacks(): components solved in full because the
  /// local re-solve met a near tie.
  std::uint64_t solver_solves() const { return solver_solves_; }
  std::uint64_t solver_flows_solved() const { return solver_flows_solved_; }
  std::uint64_t solver_fallbacks() const { return solver_fallbacks_; }

  /// Entries in the completion heap, stale ones included.
  std::size_t completion_entries() const { return completions_.size(); }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr PortId kNoPort = std::numeric_limits<PortId>::max();
  // Port and Flow keep what the component search and the due refresh
  // read in their first cache line; the local re-solve's state follows.
  struct Port {
    /// Slots of the active flows crossing this port (the solver's
    /// adjacency), once per path occurrence, unordered.
    std::vector<std::uint32_t> flows;
    /// Epoch of the last resolve whose component search reached the port.
    std::uint64_t visited = 0;
    /// Epoch of the last resolve that found the port dirty.
    std::uint64_t dirty = 0;
    /// The last component search that reached the port.
    std::uint64_t component = 0;
    /// The rate the flows it bottlenecks froze at in the last solve;
    /// kInf when it bottlenecks none.
    double share = kInf;
    /// The last full solve of the component met a near tie: solve it in
    /// full until a solve meets none.
    bool tainted = false;
    bool stale = false;       // `fresh` predates a lowered flow rate
    bool saturated = false;   // froze its level in this re-solve
    Rate cap = 0.0;
    // Local re-solve state, valid while sweep == sweep_epoch_.
    std::uint64_t sweep = 0;
    double old_share = kInf;  // share before the re-solve; kInf once passed
    double fresh = kInf;      // share under the flows' current rates
    double key = kInf;        // its queued event (a lower bound); kInf if none
  };
  /// No solve predicts a negative finish, so a flow's first solve always
  /// pushes its completion entry.
  static constexpr SimTime kNeverSolved = -1.0;
  struct Flow {
    FlowId id = kInvalidFlow;  // kInvalidFlow while the slot is free
    std::vector<PortId> path;
    double remaining = 0.0;  // bytes still to move
    Rate rate = 0.0;
    /// Predicted finish time of the flow's one current completion-heap
    /// entry; an entry with any other time is stale.
    SimTime due = kNeverSolved;
    /// Epoch of the last resolve whose component search reached the flow.
    std::uint64_t visited = 0;
    /// A local re-solve that released or froze the flow; `frozen` is valid
    /// while sweep == sweep_epoch_ (released flows are not).
    std::uint64_t sweep = 0;
    /// A port on the path whose share equals `rate`; kNoPort if none.
    PortId bottleneck = kNoPort;
    /// Index into active_ while the flow transfers.
    std::uint32_t active_at = 0;
    bool solved = false;  // has a rate
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

  void settle_progress();
  /// Register end_instant() with the simulator, once per instant.
  void end_instant_later();
  /// The instant's one re-solve: resolve_rates(), then re-arm the
  /// completion timer.
  void end_instant();
  /// Re-solve the connected components of the dirty ports.
  void resolve_rates();
  /// The ids of all flows connected to `seed` through shared ports, into
  /// component_ (unordered); the component's dirty ports into seeds_.
  void collect_component(PortId seed);
  /// Water-filling over one connected component (sorted by id): fills
  /// rates_ aligned with `component`.
  void solve_component(const std::vector<FlowId>& component);
  /// The near-tie fallback: solve component_ in full, write its rates and
  /// rebuild its ports' shares and its flows' bottlenecks.
  void full_solve();
  /// Push the completion entries of component_ whose `due` moved.
  void refresh_due();

  // --- the local re-solve ------------------------------------------------
  /// A port's share under its flows' current rates: the first `below` of
  /// items_ froze below the port's level, the rest are at it.
  struct Level {
    double share = kInf;
    double residual = 0.0;  // after the flows below
    std::uint32_t below = 0;
    std::uint32_t flows = 0;
  };
  /// Levels of at most this many flows cannot drift out of the band.
  static constexpr std::size_t kDriftFree = 64;
  struct Item {
    Rate rate;
    FlowId id;
    std::uint32_t slot;
  };
  /// Sweep component_ from seeds_; false if it met a near tie.
  bool local_solve();
  /// Fill items_ and `level` for port `p`; false on a near tie.
  bool port_level(PortId p, Level& level);
  /// Port `p` stays within the band while its level freezes.
  bool level_holds(PortId p, const Level& level) const;
  /// Bring port `p` into the sweep.
  void enter(PortId p);
  /// A flow at `p` was released or added, or `p` changed: its share may
  /// drop, so queue it at its next event now.
  void touch(PortId p);
  /// A flow at `p` froze at a lower rate: its share can only rise, so its
  /// queued event stays a lower bound.
  void lowered(PortId p);
  /// Queue `p` at `key`, which the sweep must not have passed.
  void queue(PortId p, double key);
  /// Freeze port `p`'s level at its share.
  void saturate(PortId p);
  /// Port `p`'s old share passed: release the flows it bottlenecked.
  void pass(PortId p);
  /// Give a flow rate `rate` with bottleneck `p`.
  void freeze(std::uint32_t slot, Rate rate, PortId p);
  /// A flow's rate as the sweep sees it: kInf until (re)frozen.
  Rate effective_rate(const Flow& f) const {
    if (f.sweep == sweep_epoch_) return f.frozen ? f.rate : kInf;
    return f.solved ? f.rate : kInf;
  }
  /// The rate port `p`'s walk sees: a flow `p` bottlenecks is at its
  /// level, wherever that level moves.
  Rate walk_rate(const Flow& f, PortId p) const {
    return f.bottleneck == p ? kInf : effective_rate(f);
  }
  /// Two different shares of the component within one band of each
  /// other: of any two if `all`, else of a share the sweep changed
  /// (changed_) and any other.
  bool near_tie(bool all);

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
  SimTime last_settle_ = 0.0;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  SimTime timer_at_ = 0.0;  // when timer_ fires, while it is pending
  bool instant_end_pending_ = false;
  std::function<void()> count_hook_;

  std::vector<PortId> dirty_ports_;
  /// Min-heap on (at, id), kept with the std::*_heap algorithms.
  std::vector<Completion> completions_;
  std::uint64_t visit_epoch_ = 0;
  std::uint64_t solver_solves_ = 0;
  std::uint64_t solver_flows_solved_ = 0;
  std::uint64_t solver_fallbacks_ = 0;

  // Local re-solve scratch. component_ports_ lists the ports the last
  // component search reached; `merged_` says that they came from more than
  // one earlier component, whose shares were never checked against each
  // other.
  std::uint64_t component_epoch_ = 0;
  std::vector<PortId> component_ports_;
  bool merged_ = false;
  bool component_tainted_ = false;
  std::vector<double> changed_;  // shares the sweep moved ports to
  std::vector<PortId> retry_;    // ports a full solve's check walks again
  std::vector<double> probe_;
  std::uint64_t sweep_epoch_ = 0;
  bool sweep_ok_ = true;
  double sweep_at_ = -kInf;  // the last event's share
  std::vector<PortId> seeds_;
  std::vector<PortId> touched_;
  /// Min-heap of (share, port) events, stale ones skipped on pop.
  std::vector<std::pair<double, PortId>> events_;
  std::vector<Item> items_;
  std::vector<std::uint32_t> at_level_;

  // Solver scratch, reused across solves. Slots index the component's
  // ports densely; flows are indexed by their position in the component.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<FlowId> component_;
  std::vector<std::uint32_t> stack_;  // flow slots
  std::vector<std::uint32_t> slot_of_port_;  // PortId -> slot, else kNoSlot
  std::vector<PortId> slot_port_;            // slot -> PortId
  std::vector<std::uint32_t> path_begin_;    // flow -> first path_slots_ entry
  std::vector<std::uint32_t> path_slots_;    // each flow's path as slots
  std::vector<std::uint32_t> slot_begin_;    // slot -> first slot_flows_ entry
  std::vector<std::uint32_t> slot_flows_;    // each slot's flows, ascending
  std::vector<double> residual_;
  std::vector<std::uint32_t> unfixed_;
  std::vector<double> share_;                // floored share, inf if unloaded
  std::vector<std::uint32_t> loaded_;        // slots with unfixed flows
  std::vector<std::uint32_t> candidates_;
  std::vector<char> fixed_;
  std::vector<Rate> rates_;
};

}  // namespace vdc::net
