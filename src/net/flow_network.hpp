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
// flows into one component. Three mechanisms keep a re-solve cheap:
//
//   - Component-local water-filling. A solve maps the component's ports to
//     dense slots and builds a slot->flows table once, so the level loop
//     works on arrays. Each level visits only the flows crossing a port
//     whose share is within the bottleneck band; the rates, and every
//     float operation producing them, equal the plain loop's, which
//     tests/flow_solver_equivalence_test.cpp keeps as an independent
//     oracle over for_each_flow().
//   - Hash-free adjacency. Ports list their flows as pointers, and the
//     component search marks flows and ports with a per-resolve epoch.
//   - A bounded completion heap. Every solve pushes a fresh entry per
//     flow, so left alone the heap grows with the total number of
//     re-solves. Each live flow owns one current entry (its `due` time);
//     once stale entries outnumber live ones the heap is rebuilt, so it
//     holds at most 2 x active + 1024 entries.
//
// A re-solve of a component with F flows, P ports and L water-filling
// levels costs O(F * path length * log F + L * P) array operations and no
// allocation once the scratch buffers have grown. What is still O(active
// flows) is the bookkeeping around it: settle_progress() walks every
// active flow at the first change of each instant, and every completion
// timer walks every active flow to find the finished ones.

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {

using PortId = std::uint32_t;
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
  std::size_t active_flows() const { return flows_.size(); }

  /// Flows still waiting out their head latency.
  std::size_t pending_flows() const { return pending_latency_.size(); }

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
    for (const auto& [id, flow] : flows_) fn(id, flow.path);
  }

  /// Component solves performed / flows whose rate was recomputed —
  /// the incremental solver's work counters (for benches and tests). Both
  /// move only when an instant ends.
  std::uint64_t solver_solves() const { return solver_solves_; }
  std::uint64_t solver_flows_solved() const { return solver_flows_solved_; }

  /// Entries in the completion heap, stale ones included.
  std::size_t completion_entries() const { return completions_.size(); }

 private:
  struct Flow;
  struct Port {
    Rate cap;
    /// Active flows crossing this port (the solver's adjacency), once per
    /// path occurrence, unordered. The pointers stay valid because
    /// std::unordered_map never moves its elements, not even on rehash.
    std::vector<Flow*> flows;
    /// Epoch of the last resolve whose component search reached the port.
    std::uint64_t visited = 0;
  };
  struct Flow {
    FlowId id;
    std::vector<PortId> path;
    double remaining;  // bytes still to move
    Rate rate = 0.0;
    Callback on_complete;
    /// Predicted finish time of the flow's one current completion-heap
    /// entry; an entry with any other time is stale.
    SimTime due = 0.0;
    /// Epoch of the last resolve whose component search reached the flow.
    std::uint64_t visited = 0;
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

  void settle_progress();
  /// Register end_instant() with the simulator, once per instant.
  void end_instant_later();
  /// The instant's one re-solve: resolve_rates(), then re-arm the
  /// completion timer.
  void end_instant();
  /// Re-solve the connected components of the dirty ports.
  void resolve_rates();
  /// All flows connected to `seed` through shared ports, into component_,
  /// sorted by id.
  void collect_component(PortId seed);
  /// Water-filling over one connected component (sorted by id): fills
  /// rates_ aligned with `component`.
  void solve_component(const std::vector<Flow*>& component);
  /// Write rates_ back and refresh the flows' completion entries.
  void apply_rates(const std::vector<Flow*>& component);
  /// Mark ports dirty and have the instant end with a re-solve.
  void mark_dirty(const std::vector<PortId>& path);
  void link(Flow& flow);
  void unlink(Flow& flow);
  void push_completion(Completion c);
  void pop_completion();
  /// Rebuild the completion heap from the live entries once stale ones
  /// outnumber them.
  void maybe_compact_completions();
  /// Point the timer at the earliest live completion entry; a timer
  /// already armed for that time is kept.
  void schedule_next_completion();
  void on_timer();
  void activate(Flow flow);
  void notify_count();

  simkit::Simulator& sim_;
  std::vector<Port> ports_;
  std::unordered_map<FlowId, Flow> flows_;
  // Flows waiting out their head latency (cancellable via pending_latency_).
  std::unordered_map<FlowId, simkit::EventId> pending_latency_;
  FlowId next_flow_id_ = 1;
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

  // Solver scratch, reused across solves. Slots index the component's
  // ports densely; flows are indexed by their position in the component.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<Flow*> component_;
  std::vector<Flow*> stack_;
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
