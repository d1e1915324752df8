// Incremental-solver equivalence: the component-local re-solve must be
// bit-for-bit identical to a full from-scratch water-filling pass (the
// oracle_rates() oracle), after every mutation, on adversarial topologies.
// Both funnel through the same pure solve_component(), so equality is by
// construction — these tests exist to catch bookkeeping rot (stale
// adjacency, missed dirty marks, component under-collection) the moment it
// appears.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/flow_network.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {
namespace {

void expect_rates_match_oracle(FlowNetwork& fn, const char* where) {
  const auto oracle = fn.oracle_rates();
  for (const auto& [id, rate] : oracle) {
    // Bitwise equality, not EXPECT_NEAR: the incremental path must run the
    // exact float ops the full solve runs.
    ASSERT_EQ(fn.flow_rate(id), rate) << where << " flow " << id;
  }
}

// Random starts/cancels/capacity changes over a clustered topology chosen
// to produce many small components plus occasional giant ones; the live
// rates must match the oracle bitwise after every operation.
TEST(FlowSolverEquivalence, RandomizedOpsMatchOracleBitwise) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(seed);

    constexpr int kPorts = 24;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(fn.add_port(rng.uniform(10.0, 500.0)));

    std::vector<FlowId> live;
    for (int op = 0; op < 400; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.55 || live.empty()) {
        // Start a flow: usually within one cluster of 4 ports (small
        // components), sometimes spanning clusters (merges them).
        const int cluster = static_cast<int>(rng.uniform_u64(kPorts / 4)) * 4;
        std::vector<PortId> path{ports[cluster + rng.uniform_u64(4)]};
        const PortId second = rng.uniform() < 0.2
                                  ? ports[rng.uniform_u64(kPorts)]
                                  : ports[cluster + rng.uniform_u64(4)];
        if (second != path[0]) path.push_back(second);
        live.push_back(
            fn.start_flow(std::move(path), 1 + rng.uniform_u64(1u << 20),
                          [] {}));
      } else if (roll < 0.85) {
        const std::size_t victim = rng.uniform_u64(live.size());
        fn.cancel_flow(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        fn.set_capacity(ports[rng.uniform_u64(kPorts)],
                        rng.uniform(10.0, 500.0));
      }
      // Let a little sim time pass so settles and completions interleave.
      if (rng.chance(0.3)) {
        const double horizon = sim.now() + rng.uniform(0.0, 5.0);
        sim.run_until(horizon);
        // Drop ids whose flows completed meanwhile.
        std::vector<FlowId> still;
        for (FlowId id : live)
          if (fn.flow_rate(id) > 0.0) still.push_back(id);
        live.swap(still);
      }
      expect_rates_match_oracle(fn, "after op");
    }
  }
}

// A scheduled run (staggered starts, head latencies, completions) stepped
// one event at a time: after every event the live rates must match the
// from-scratch oracle bitwise, every flow must complete, and the
// incremental solver must re-solve fewer flows than a full solve of every
// active flow on each re-solving event would have.
TEST(FlowSolverEquivalence, SteppedRunMatchesOracleAfterEveryEvent) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(seed);
    std::vector<PortId> ports;
    for (int i = 0; i < 12; ++i)
      ports.push_back(fn.add_port(rng.uniform(20.0, 200.0)));
    int completed = 0;
    double expect_port_bytes = 0.0;
    constexpr int kFlows = 120;
    for (int i = 0; i < kFlows; ++i) {
      const double at = rng.uniform(0.0, 50.0);
      const PortId a = ports[rng.uniform_u64(ports.size())];
      const PortId b = ports[rng.uniform_u64(ports.size())];
      const Bytes bytes = 1 + rng.uniform_u64(1u << 18);
      const double latency = rng.chance(0.25) ? rng.uniform(0.0, 2.0) : 0.0;
      std::vector<PortId> path{a};
      if (b != a) path.push_back(b);
      expect_port_bytes +=
          static_cast<double>(bytes) * static_cast<double>(path.size());
      sim.at(at, [&fn, &completed, path, bytes, latency] {
        fn.start_flow(path, bytes, [&completed] { ++completed; }, latency);
      });
    }

    std::uint64_t full_work = 0;
    while (true) {
      const std::uint64_t solves = fn.solver_solves();
      if (!sim.step()) break;
      if (fn.solver_solves() != solves) full_work += fn.active_flows();
      expect_rates_match_oracle(fn, "after event");
    }
    EXPECT_EQ(completed, kFlows) << "seed " << seed;
    EXPECT_EQ(fn.active_flows(), 0u) << "seed " << seed;
    double port_bytes = 0.0;
    for (PortId p : ports) port_bytes += fn.port_bytes(p);
    // A flow retires with under one byte left on each port it crosses.
    EXPECT_NEAR(port_bytes, expect_port_bytes, 2.0 * kFlows) << "seed " << seed;
    EXPECT_LT(fn.solver_flows_solved(), full_work) << "seed " << seed;
  }
}

// Disjoint components: touching one must not re-solve the other (the
// O(component) cost claim), and must not perturb its rates.
TEST(FlowSolverEquivalence, DisjointComponentsAreNotResolved) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(100.0);
  const PortId b = fn.add_port(100.0);
  fn.start_flow({a}, 1u << 30, [] {});
  const FlowId fa2 = fn.start_flow({a}, 1u << 30, [] {});
  const std::uint64_t flows_before = fn.solver_flows_solved();

  // Start and cancel traffic on the unrelated port b.
  const FlowId fb = fn.start_flow({b}, 1u << 30, [] {});
  const double rate_a = fn.flow_rate(fa2);
  fn.cancel_flow(fb);
  EXPECT_EQ(fn.flow_rate(fa2), rate_a);
  EXPECT_EQ(fn.flow_rate(fa2), 50.0);
  // Only {fb}'s singleton component was solved by the two ops.
  EXPECT_EQ(fn.solver_flows_solved(), flows_before + 1);
  expect_rates_match_oracle(fn, "after disjoint ops");
}

}  // namespace
}  // namespace vdc::net
