#pragma once
// Flow-level network model with max-min fair bandwidth sharing.
//
// The model is fluid: a flow is a number of bytes moving along a path of
// capacitated ports (NIC TX, NIC RX, a shared NAS uplink, a disk array...).
// Whenever a flow starts or finishes, every active flow's progress is
// settled at its current rate and rates are recomputed with the classic
// water-filling algorithm:
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
// influence each other's rates. The solver exploits that — every flow
// start/finish/cancel and capacity change marks the ports it touches
// dirty, and resolve_rates() re-solves only the connected components those
// ports belong to, leaving every other flow's rate untouched. Each
// component is solved by a pure function of (component flows, port
// capacities), so the incremental path is bit-for-bit identical to a full
// from-scratch solve (oracle_rates(), the test oracle in
// tests/flow_solver_equivalence_test.cpp). Completion timers are kept in a
// lazy min-heap keyed by predicted finish time, so a flow change costs
// O(component), not O(active flows) — the difference between 100-node and
// 10k-node runs.

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
  PortId add_port(Rate capacity, std::string name = {});

  /// Change a port's capacity (e.g. degrade a failing link). Re-solves
  /// the port's connected component.
  void set_capacity(PortId port, Rate capacity);

  Rate capacity(PortId port) const;
  const std::string& port_name(PortId port) const;

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

  /// Current max-min rate of a flow (0 if unknown/inactive).
  Rate flow_rate(FlowId id) const;

  simkit::Simulator& sim() { return sim_; }

  /// Total bytes ever delivered through a port (Kahan-compensated; long
  /// 10k-node runs don't drift).
  double port_bytes(PortId port) const;

  // --- solver introspection --------------------------------------------------
  /// Full from-scratch max-min solve of the current flow population,
  /// computed on the side (the equivalence oracle). Builds its own
  /// adjacency, so it cross-checks the incremental bookkeeping too.
  /// Returns (flow, rate) sorted by flow id.
  std::vector<std::pair<FlowId, Rate>> oracle_rates() const;

  /// Component solves performed / flows whose rate was recomputed —
  /// the incremental solver's work counters (for benches and tests).
  std::uint64_t solver_solves() const { return solver_solves_; }
  std::uint64_t solver_flows_solved() const { return solver_flows_solved_; }

 private:
  struct Port {
    Rate cap;
    std::string name;
    KahanSum bytes_through;
    /// Active flows crossing this port (the solver's adjacency).
    std::unordered_set<FlowId> flows;
  };
  struct Flow {
    std::vector<PortId> path;
    double remaining;  // bytes still to move
    Rate rate = 0.0;
    Callback on_complete;
    /// Bumped whenever the rate is re-solved; stale completion-heap
    /// entries (older stamp) are skipped.
    std::uint64_t stamp = 0;
  };
  /// Lazy completion-heap entry: predicted absolute finish time under the
  /// rate current at stamp time.
  struct Completion {
    SimTime at;
    FlowId id;
    std::uint64_t stamp;
    bool operator>(const Completion& o) const {
      if (at != o.at) return at > o.at;
      return id > o.id;
    }
  };

  void settle_progress();
  /// Re-solve the connected components of the dirty ports.
  void resolve_rates();
  /// All flows connected to `seed` through shared ports, ascending.
  std::vector<FlowId> collect_component(FlowId seed,
                                        std::unordered_set<FlowId>& seen,
                                        std::unordered_set<PortId>& ports_seen)
      const;
  /// Pure water-filling over one connected component: rates aligned with
  /// `ids` (which must be sorted ascending). Reads flows_/ports_ only.
  std::vector<Rate> solve_component(const std::vector<FlowId>& ids) const;
  /// Write solved rates back and refresh the flows' completion entries.
  void apply_rates(const std::vector<FlowId>& ids,
                   const std::vector<Rate>& rates);
  void mark_dirty(const std::vector<PortId>& path);
  void schedule_next_completion();
  void on_timer();
  void activate(FlowId id, Flow flow);
  void notify_count();

  simkit::Simulator& sim_;
  std::vector<Port> ports_;
  std::unordered_map<FlowId, Flow> flows_;
  // Flows waiting out their head latency (cancellable via pending_latency_).
  std::unordered_map<FlowId, simkit::EventId> pending_latency_;
  FlowId next_flow_id_ = 1;
  SimTime last_settle_ = 0.0;
  simkit::EventId timer_ = simkit::kInvalidEvent;
  std::function<void()> count_hook_;

  std::unordered_set<PortId> dirty_ports_;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<>> completions_;
  std::uint64_t solver_solves_ = 0;
  std::uint64_t solver_flows_solved_ = 0;
};

}  // namespace vdc::net
