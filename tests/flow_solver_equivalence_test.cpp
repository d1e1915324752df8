// Production-solver equivalence: at every instant boundary, on adversarial
// topologies, the live rates must be exactly those of oracle_rates()
// below, a from-scratch solve with its own copy of the plain level-by-level
// water-filling loop and share floor. It reads only the flow table
// (FlowNetwork::for_each_flow) and port capacities, so the two share no
// solver code. Rates are whole bytes per second, so every rate is compared
// with ==. The live path re-solves only the ports and flows a change
// reaches, so equality is a property these tests check, not a given. They
// catch a propagation that stops short, a share rounded instead of
// floored, a port whose share moves within a level, and bookkeeping rot
// (stale adjacency, missed dirty marks, a completion heap that loses a
// timer, a rate change that forgets the bytes already moved). The network
// re-solves once per simulated instant, after every change of that
// instant; the coalescing cases below check each instant's sweep against
// the dirty components an independent union-find finds. Seed counts widen
// with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "fuzz_seeds.hpp"
#include "net/chunked_stream.hpp"
#include "net/fabric.hpp"
#include "net/flow_network.hpp"
#include "simkit/simulator.hpp"

namespace vdc::net {
namespace {

/// Fire what is left of the current instant, then its end-of-instant
/// re-solve: rates are defined at instant boundaries.
void finish_instant(simkit::Simulator& sim) { sim.run_until(sim.now()); }

// The solver's anti-starvation share floor, restated: a port's share is
// its residual over its unfixed flows, floored, and never under 1 B/s.
std::int64_t floored_share(std::int64_t residual, std::int64_t unfixed) {
  return std::max<std::int64_t>(1, residual / unfixed);
}

/// Full from-scratch max-min solve of the active flows: (flow, rate)
/// sorted by flow id. The plain loop, level by level: the level is the
/// smallest share of any port with unfixed flows; every port whose share
/// equals it at the start of the level saturates, and every unfixed flow
/// crossing one of them freezes at it; then the frozen flows are charged
/// to every port on their paths.
std::vector<std::pair<FlowId, Rate>> oracle_rates(const FlowNetwork& fn) {
  // Build the adjacency from the flow table alone (deliberately NOT from
  // the solver's per-port lists, so broken incremental bookkeeping can't
  // fool the check).
  std::map<FlowId, std::vector<PortId>> paths;
  fn.for_each_flow([&](FlowId id, const std::vector<PortId>& path) {
    paths.emplace(id, path);
  });
  std::map<PortId, std::int64_t> residual;
  std::map<PortId, std::int64_t> unfixed;
  for (const auto& [id, path] : paths)
    for (PortId p : path) {
      residual[p] = static_cast<std::int64_t>(fn.capacity(p));
      ++unfixed[p];
    }

  std::map<FlowId, std::int64_t> rates;
  while (rates.size() < paths.size()) {
    std::int64_t level = std::numeric_limits<std::int64_t>::max();
    for (const auto& [p, n] : unfixed)
      if (n > 0) level = std::min(level, floored_share(residual[p], n));
    std::set<PortId> saturated;
    for (const auto& [p, n] : unfixed)
      if (n > 0 && floored_share(residual[p], n) == level) saturated.insert(p);
    std::vector<FlowId> frozen;
    for (const auto& [id, path] : paths) {
      if (rates.count(id)) continue;
      if (std::any_of(path.begin(), path.end(),
                      [&](PortId p) { return saturated.count(p) > 0; }))
        frozen.push_back(id);
    }
    VDC_ASSERT_MSG(!frozen.empty(), "water-filling failed to make progress");
    for (FlowId id : frozen) {
      rates[id] = level;
      for (PortId p : paths.at(id)) {
        residual[p] -= level;
        --unfixed[p];
      }
    }
  }
  std::vector<std::pair<FlowId, Rate>> out;
  out.reserve(rates.size());
  for (const auto& [id, rate] : rates)
    out.emplace_back(id, static_cast<Rate>(rate));
  return out;
}

void expect_rates_match_oracle(FlowNetwork& fn, const char* where) {
  finish_instant(fn.sim());
  for (const auto& [id, rate] : oracle_rates(fn)) {
    // Exact equality: both sides are whole bytes per second.
    ASSERT_EQ(fn.flow_rate(id), rate) << where << " flow " << id;
  }
}

/// Flows in the largest connected component of the active flows, from a
/// union-find over their paths.
std::size_t largest_component(const FlowNetwork& fn) {
  std::map<PortId, PortId> parent;
  const auto find = [&](PortId x) {
    while (parent.at(x) != x) x = parent[x] = parent.at(parent.at(x));
    return x;
  };
  std::vector<PortId> firsts;
  fn.for_each_flow([&](FlowId, const std::vector<PortId>& path) {
    for (PortId p : path) parent.emplace(p, p);
    for (PortId p : path) parent[find(p)] = find(path.front());
    firsts.push_back(path.front());
  });
  std::map<PortId, std::size_t> size;
  std::size_t largest = 0;
  for (PortId p : firsts) largest = std::max(largest, ++size[find(p)]);
  return largest;
}

// Random starts/cancels/capacity changes over a clustered topology chosen
// to produce many small components plus occasional giant ones; the live
// rates must match the oracle exactly after every operation.
TEST(FlowSolverEquivalence, RandomizedOpsMatchOracleBitwise) {
  for (int seed = 1; seed <= fuzz_seed_count(8); ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));

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
// one event at a time, each event's instant finished before the checks:
// the live rates must match the from-scratch oracle exactly, every flow
// must complete having moved its size, and the incremental solver must
// re-solve no more flows than a full solve of every active flow on each
// re-solving instant would have. A seed whose every re-solve spans one
// component does exactly the full work, so "fewer" is asserted over all
// seeds together. Bytes are conserved per flow: the oracle's rates,
// integrated between instants, must add up to each flow's size when it
// completes.
TEST(FlowSolverEquivalence, SteppedRunMatchesOracleAfterEveryEvent) {
  std::uint64_t solved_all = 0;
  std::uint64_t full_work_all = 0;
  for (int seed = 1; seed <= fuzz_seed_count(5); ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<PortId> ports;
    for (int i = 0; i < 12; ++i)
      ports.push_back(fn.add_port(rng.uniform(20.0, 200.0)));
    constexpr int kFlows = 120;
    std::vector<FlowId> ids(kFlows);
    std::vector<Bytes> sizes(kFlows);
    std::vector<int> finished;  // flows completed in the current step
    int completed = 0;
    for (int i = 0; i < kFlows; ++i) {
      const double at = rng.uniform(0.0, 50.0);
      const PortId a = ports[rng.uniform_u64(ports.size())];
      const PortId b = ports[rng.uniform_u64(ports.size())];
      sizes[i] = 1 + rng.uniform_u64(1u << 18);
      const double latency = rng.chance(0.25) ? rng.uniform(0.0, 2.0) : 0.0;
      std::vector<PortId> path{a};
      if (b != a) path.push_back(b);
      sim.at(at, [&, i, path, latency] {
        ids[i] = fn.start_flow(
            path, sizes[i],
            [&, i] {
              ++completed;
              finished.push_back(i);
            },
            latency);
      });
    }

    std::uint64_t full_work = 0;
    std::map<FlowId, double> moved;  // integral of the oracle's rate
    std::vector<std::pair<FlowId, Rate>> rates;  // since `rates_at`
    SimTime rates_at = 0.0;
    while (true) {
      const std::uint64_t solves = fn.solver_solves();
      if (!sim.step()) break;
      finish_instant(sim);
      for (const auto& [id, rate] : rates)
        moved[id] += rate * (sim.now() - rates_at);
      for (int i : finished)
        EXPECT_NEAR(moved[ids[i]], static_cast<double>(sizes[i]), 1.0)
            << "seed " << seed << " flow " << i;
      finished.clear();
      rates = oracle_rates(fn);
      rates_at = sim.now();
      if (fn.solver_solves() != solves) full_work += fn.active_flows();
      expect_rates_match_oracle(fn, "after event");
    }
    EXPECT_EQ(completed, kFlows) << "seed " << seed;
    EXPECT_EQ(fn.active_flows(), 0u) << "seed " << seed;
    EXPECT_LE(fn.solver_flows_solved(), full_work) << "seed " << seed;
    solved_all += fn.solver_flows_solved();
    full_work_all += full_work;
  }
  EXPECT_LT(solved_all, full_work_all);
}

// Disjoint components: touching one must not re-solve the other (re-solves
// stay component-local), and must not perturb its rates.
TEST(FlowSolverEquivalence, DisjointComponentsAreNotResolved) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(100.0);
  const PortId b = fn.add_port(100.0);
  fn.start_flow({a}, 1u << 30, [] {});
  const FlowId fa2 = fn.start_flow({a}, 1u << 30, [] {});
  finish_instant(sim);
  const std::uint64_t flows_before = fn.solver_flows_solved();

  // Start and cancel traffic on the unrelated port b, an instant each.
  const FlowId fb = fn.start_flow({b}, 1u << 30, [] {});
  finish_instant(sim);
  const double rate_a = fn.flow_rate(fa2);
  fn.cancel_flow(fb);
  finish_instant(sim);
  EXPECT_EQ(fn.flow_rate(fa2), rate_a);
  EXPECT_EQ(fn.flow_rate(fa2), 50.0);
  // Only {fb}'s singleton component was solved by the two ops.
  EXPECT_EQ(fn.solver_flows_solved(), flows_before + 1);
  expect_rates_match_oracle(fn, "after disjoint ops");
}

// Exact ties: port capacities are retuned so that a port's fair share is
// the unit share exactly, 1 B/s either side of it, or the unit share with
// a floor remainder of up to one byte per flow. Shares that are equal
// then freeze in one level, on ports that share no flow as well, and
// shares 1 B/s apart in two; any divergence from the plain loop's levels
// shows up as a rate mismatch.
TEST(FlowSolverEquivalence, ExactTiesMatchOracle) {
  constexpr std::int64_t kUnitShare = 100;
  for (int seed = 1; seed <= fuzz_seed_count(8); ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));

    constexpr int kPorts = 10;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(fn.add_port(static_cast<Rate>(kUnitShare + i % 3 - 1)));
    std::vector<std::pair<FlowId, std::vector<PortId>>> live;
    const auto flows_on = [&](PortId p) {
      std::int64_t n = 0;
      for (const auto& [id, path] : live)
        for (PortId q : path) n += q == p;
      return std::max<std::int64_t>(1, n);
    };

    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.35 || live.empty()) {
        std::vector<PortId> path;
        const std::uint64_t hops = 1 + rng.uniform_u64(3);
        for (std::uint64_t h = 0; h < hops; ++h) {
          const PortId p = ports[rng.uniform_u64(kPorts)];
          if (std::find(path.begin(), path.end(), p) == path.end())
            path.push_back(p);
        }
        const FlowId id = fn.start_flow(path, 1ull << 40, [] {});
        live.emplace_back(id, std::move(path));
      } else if (roll < 0.55) {
        const std::size_t victim = rng.uniform_u64(live.size());
        fn.cancel_flow(live[victim].first);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        // Retune one port so its share is the unit share, one either side
        // of it, or the unit share with a remainder.
        const PortId p = ports[rng.uniform_u64(kPorts)];
        const std::int64_t n = flows_on(p);
        const std::int64_t offsets[] = {0, -n, n, n - 1};
        fn.set_capacity(p, static_cast<Rate>(kUnitShare * n +
                                              offsets[rng.uniform_u64(4)]));
      }
      if (rng.chance(0.1)) sim.run_until(sim.now() + rng.uniform(0.0, 1.0));
      expect_rates_match_oracle(fn, "exact-tie op");
    }
  }
}

// Level-start semantics. Port Q carries two flows that also cross port P,
// which carries a third: Q's share is 10, and P's is floor(32 / 3) = 10
// with a remainder of 2. Both saturate at the level of 10, so all three
// flows run at 10 and P leaves 2 B/s unused. Had P's share been updated as
// Q's flows froze within the level, it would have risen to 12 and the
// third flow with it. Either port may have the lower id, so either may be
// swept first.
TEST(FlowSolverEquivalence, FloorRemainderHoldsItsLevel) {
  for (const bool q_first : {true, false}) {
    SCOPED_TRACE(q_first ? "Q first" : "P first");
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    const PortId first = fn.add_port(q_first ? 20.0 : 32.0);
    const PortId second = fn.add_port(q_first ? 32.0 : 20.0);
    const PortId q = q_first ? first : second;
    const PortId p = q_first ? second : first;
    const FlowId a = fn.start_flow({q, p}, 1ull << 40, [] {});
    const FlowId b = fn.start_flow({q, p}, 1ull << 40, [] {});
    const FlowId c = fn.start_flow({p}, 1ull << 40, [] {});
    expect_rates_match_oracle(fn, "one level");
    EXPECT_EQ(fn.flow_rate(a), 10.0);
    EXPECT_EQ(fn.flow_rate(b), 10.0);
    EXPECT_EQ(fn.flow_rate(c), 10.0);
    // One more byte on Q lifts its share to 10 still (21 / 2), but two lift
    // it to 11: then P alone holds the level of 10.
    fn.set_capacity(q, 22.0);
    expect_rates_match_oracle(fn, "P alone");
    EXPECT_EQ(fn.flow_rate(c), 10.0);
    // A third flow on Q alone drops Q's share to 7: Q's two shared flows
    // freeze at 7 below P's level, and P gives the rest, 32 - 14, to c.
    fn.start_flow({q}, 1ull << 40, [] {});
    expect_rates_match_oracle(fn, "Q below");
    EXPECT_EQ(fn.flow_rate(a), 7.0);
    EXPECT_EQ(fn.flow_rate(c), 18.0);
  }
}

// Fleet-shaped fabric: every host streams to rotating holders through its
// NIC, the way the declustered layout spreads exchange and rebuild load,
// so all flows join one max-min component of a few hundred flows.
// Staggered starts, a mid-run cancel burst (one instant, so one re-solve)
// and the completions are stepped one event at a time against the oracle.
TEST(FlowSolverEquivalence, DeclusteredGiantComponentMatchesOracle) {
  constexpr int kHosts = 40;
  constexpr int kFlowsPerHost = 10;
  constexpr int kFlows = kHosts * kFlowsPerHost;
  for (int seed = 1; seed <= fuzz_seed_count(2); ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    for (int h = 0; h < kHosts; ++h) {
      // Mostly identical NICs (exact ties), a few degraded ones.
      const double cap = rng.chance(0.1) ? rng.uniform(300.0, 900.0) : 1000.0;
      tx.push_back(fn.add_port(cap));
      rx.push_back(fn.add_port(cap));
    }

    std::vector<FlowId> ids(kFlows, kInvalidFlow);
    int completed = 0;
    const std::uint64_t rotation = rng.uniform_u64(kHosts - 1);
    for (int h = 0; h < kHosts; ++h) {
      for (int j = 0; j < kFlowsPerHost; ++j) {
        const int holder = static_cast<int>(
            (static_cast<std::uint64_t>(h) + 1 + rotation +
             static_cast<std::uint64_t>(j) * 3) %
            kHosts);
        if (holder == h) continue;
        const int slot = h * kFlowsPerHost + j;
        const std::vector<PortId> path{tx[h], rx[holder]};
        const Bytes bytes = 200 + rng.uniform_u64(800);
        sim.at(rng.uniform(0.0, 2.0), [&, slot, path, bytes] {
          ids[slot] = fn.start_flow(path, bytes, [&completed] { ++completed; });
        });
      }
    }
    // The cancel burst: a third of the flows, one event each.
    int cancelled = 0;
    for (int slot = 0; slot < kFlows; slot += 3) {
      sim.at(3.0, [&, slot] {
        if (ids[slot] != kInvalidFlow && fn.cancel_flow(ids[slot])) ++cancelled;
      });
    }

    int started = 0;
    std::size_t largest = 0;
    while (sim.step()) {
      finish_instant(sim);
      largest = std::max(largest, largest_component(fn));
      expect_rates_match_oracle(fn, "giant component event");
    }
    for (FlowId id : ids) started += id != kInvalidFlow;
    EXPECT_GE(largest, 200u) << "seed " << seed;
    EXPECT_GT(cancelled, 0) << "seed " << seed;
    EXPECT_EQ(completed + cancelled, started) << "seed " << seed;
    EXPECT_EQ(fn.active_flows(), 0u) << "seed " << seed;
  }
}

// bench/e2e's fleet, in the solver's terms: 60 hosts, each streaming
// chains of flows to holders spread over every other host, so all flows
// join one component of several hundred. Each seed runs twice: on equal
// 1.25e9 B/s NICs, as every fleet node has, where many levels coincide,
// and on NICs a few percent apart, where few do. Starts are staggered,
// sizes vary, and each completion starts its chain's next flow at the
// same instant. At every instant the rates match the oracle exactly; over
// the run a transfer (a flow started) re-solves at most 40 flows, where a
// re-solve of the whole component would take hundreds.
TEST(FlowSolverLocal, FleetShapedRunResolvesFewFlowsPerTransfer) {
  constexpr int kHosts = 60;
  constexpr int kChains = 4;          // concurrent chains per host
  constexpr int kFlowsPerChain = 3;   // flows each chain sends in turn
  for (int seed = 1; seed <= fuzz_seed_count(2); ++seed) {
    for (const bool equal_nics : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << (equal_nics ? ", equal" : ", uneven")
                   << " NICs");
      simkit::Simulator sim;
      FlowNetwork fn(sim);
      Rng rng(static_cast<std::uint64_t>(seed));
      std::vector<PortId> tx;
      std::vector<PortId> rx;
      for (int h = 0; h < kHosts; ++h) {
        const double nic =
            equal_nics ? 1.25e9 : 1.25e9 * rng.uniform(0.95, 1.05);
        tx.push_back(fn.add_port(nic));
        rx.push_back(fn.add_port(nic));
      }
      std::uint64_t transfers = 0;
      int completed = 0;
      std::function<void(int, int, int)> send = [&](int h, int chain, int k) {
        if (k == kFlowsPerChain) return;
        const auto holder = static_cast<int>(
            (static_cast<std::uint64_t>(h) + 1 + rng.uniform_u64(kHosts - 1)) %
            kHosts);
        ++transfers;
        fn.start_flow({tx[h], rx[holder]},
                      2'000'000 + rng.uniform_u64(6'000'000),
                      [&, h, chain, k] {
                        ++completed;
                        send(h, chain, k + 1);
                      });
      };
      for (int h = 0; h < kHosts; ++h)
        for (int c = 0; c < kChains; ++c)
          sim.at(rng.uniform(0.0, 0.01), [&send, h, c] { send(h, c, 0); });

      std::size_t largest = 0;
      while (sim.step()) {
        finish_instant(sim);
        largest = std::max(largest, largest_component(fn));
        ASSERT_NO_FATAL_FAILURE(expect_rates_match_oracle(fn, "fleet instant"));
      }
      EXPECT_EQ(completed, kHosts * kChains * kFlowsPerChain);
      EXPECT_GE(largest, 200u);
      const double per_transfer =
          static_cast<double>(fn.solver_flows_solved()) /
          static_cast<double>(transfers);
      EXPECT_LE(per_transfer, 40.0);
      std::printf("seed %d, %s NICs: %.1f flows re-solved per transfer\n",
                  seed, equal_nics ? "equal" : "uneven", per_transfer);
    }
  }
}

// Two ports that share no flow but sit in one component, through a hub,
// with equal shares: both levels are one, so both flows run at 100. The
// sweep reaches the second port from its own new flow alone, and the
// first keeps its rate without being re-solved.
TEST(FlowSolverLocal, EqualSharesOnDisjointPortsAreOneLevel) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(100.0);
  const PortId b = fn.add_port(100.0);
  const PortId hub = fn.add_port(1000.0);
  const FlowId fa = fn.start_flow({a, hub}, 1u << 30, [] {});
  expect_rates_match_oracle(fn, "first flow");
  const std::uint64_t solved = fn.solver_flows_solved();
  const FlowId fb = fn.start_flow({b, hub}, 1u << 30, [] {});
  expect_rates_match_oracle(fn, "tie");
  EXPECT_EQ(fn.flow_rate(fb), fn.flow_rate(fa));
  EXPECT_EQ(fn.flow_rate(fa), 100.0);
  EXPECT_EQ(fn.solver_flows_solved(), solved + 1);
  // The hub squeezed to the tie: its share is 100 too, one level still.
  fn.set_capacity(hub, 200.0);
  expect_rates_match_oracle(fn, "hub at the tie");
  EXPECT_EQ(fn.flow_rate(fa), 100.0);
  // One byte less and the hub bottlenecks both flows.
  fn.set_capacity(hub, 199.0);
  expect_rates_match_oracle(fn, "hub below the tie");
  EXPECT_EQ(fn.flow_rate(fa), 99.0);
  EXPECT_EQ(fn.flow_rate(fb), 99.0);
  fn.set_capacity(hub, 800.0);
  fn.set_capacity(b, 150.0);
  fn.cancel_flow(fa);
  expect_rates_match_oracle(fn, "tie lifted");
  EXPECT_EQ(fn.flow_rate(fb), 150.0);
}

// NIC shares one byte per second apart: capacities are a multiple of the
// flows on the port plus or minus one flow's worth, so neighbouring levels
// differ by 1 B/s. Random starts, cancels and capacity changes match the
// oracle exactly, and re-solve fewer flows than whole-component solves.
TEST(FlowSolverLocal, SharesOneApartMatchOracle) {
  for (int seed = 1; seed <= fuzz_seed_count(4); ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    constexpr int kHosts = 16;
    constexpr std::int64_t kShare = 1000;
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    std::map<PortId, std::int64_t> load;  // flows per port
    for (int h = 0; h < kHosts; ++h) {
      tx.push_back(fn.add_port(static_cast<Rate>(kShare + h % 3 - 1)));
      rx.push_back(fn.add_port(static_cast<Rate>(kShare + h % 2)));
    }
    std::vector<std::pair<FlowId, std::vector<PortId>>> live;
    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.6 || live.empty()) {
        const auto h = rng.uniform_u64(kHosts);
        const auto d = (h + 1 + rng.uniform_u64(kHosts - 1)) % kHosts;
        const std::vector<PortId> path{tx[h], rx[d]};
        live.emplace_back(fn.start_flow(path, 1ull << 40, [] {}), path);
        for (PortId p : path) ++load[p];
      } else if (roll < 0.9) {
        const std::size_t victim = rng.uniform_u64(live.size());
        fn.cancel_flow(live[victim].first);
        for (PortId p : live[victim].second) --load[p];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const auto h = rng.uniform_u64(kHosts);
        const PortId p = rng.chance(0.5) ? tx[h] : rx[h];
        const std::int64_t n = std::max<std::int64_t>(1, load[p]);
        const auto step = static_cast<std::int64_t>(rng.uniform_u64(3)) - 1;
        fn.set_capacity(p, static_cast<Rate>((kShare + step) * n));
      }
      expect_rates_match_oracle(fn, "one-apart op");
    }
    EXPECT_LT(fn.solver_flows_solved(), 300u * live.size());
  }
}

// A standing component re-solved 10k times leaves a stale completion
// entry per flow whose rate each solve moves; compaction must keep the
// heap within 2 x active + 1024 entries without moving any timer.
TEST(FlowSolverEquivalence, CompletionHeapStaysBounded) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  constexpr int kPorts = 8;
  std::vector<PortId> ports;
  for (int i = 0; i < kPorts; ++i)
    ports.push_back(fn.add_port(100.0 + 10.0 * i));
  int completed = 0;
  constexpr int kStanding = 64;
  for (int i = 0; i < kStanding; ++i)
    fn.start_flow({ports[i % kPorts], ports[(i + 1) % kPorts]},
                  100000 + 1000 * static_cast<Bytes>(i),
                  [&completed] { ++completed; });

  // Every op ends its instant, so it re-solves the standing component, and
  // without compaction the heap only grows; count the ops after which it
  // shrank to under half.
  int compactions = 0;
  const auto check_bound = [&](std::size_t before, int op) {
    const std::size_t entries = fn.completion_entries();
    ASSERT_LE(entries, 2 * fn.active_flows() + 1024) << "op " << op;
    if (entries < before / 2) ++compactions;
  };
  const std::uint64_t solves_before = fn.solver_solves();
  for (int op = 0; fn.solver_solves() - solves_before < 10000; ++op) {
    std::size_t before = fn.completion_entries();
    const FlowId id = fn.start_flow(
        {ports[op % kPorts], ports[(op + 3) % kPorts]}, 1u << 20, [] {});
    finish_instant(sim);
    ASSERT_NO_FATAL_FAILURE(check_bound(before, op));
    before = fn.completion_entries();
    fn.cancel_flow(id);
    finish_instant(sim);
    ASSERT_NO_FATAL_FAILURE(check_bound(before, op));
    if (op % 100 == 0) {
      sim.run_until(sim.now() + 1.0);
      expect_rates_match_oracle(fn, "standing component");
    }
  }
  EXPECT_GT(compactions, 0);
  EXPECT_EQ(fn.active_flows(), static_cast<std::size_t>(kStanding));
  sim.run();
  EXPECT_EQ(completed, kStanding);
  EXPECT_EQ(fn.completion_entries(), 0u);
}

// --- coalescing: one sweep per instant ---------------------------------------

/// What an instant's end may re-solve, found without the solver: the
/// components (a union-find over the live flows' paths) that hold a port
/// the instant touched, the flows in them, and the flows outside them.
struct DirtyWork {
  std::uint64_t components = 0;
  std::uint64_t flows = 0;
  std::vector<FlowId> clean;
};
DirtyWork dirty_work(const std::map<FlowId, std::vector<PortId>>& live,
                     const std::vector<PortId>& touched, std::size_t nports) {
  std::vector<std::size_t> parent(nports);
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const auto& [id, path] : live)
    for (PortId p : path) parent[find(p)] = find(path.front());
  std::vector<char> dirty(nports, 0);
  for (PortId p : touched) dirty[find(p)] = 1;
  DirtyWork work;
  std::vector<char> counted(nports, 0);
  for (const auto& [id, path] : live) {
    const std::size_t root = find(path.front());
    if (!dirty[root]) {
      work.clean.push_back(id);
      continue;
    }
    ++work.flows;
    if (!counted[root]) {
      counted[root] = 1;
      ++work.components;
    }
  }
  return work;
}

// The epoch-start shape: every host starts its exchange flows at one
// instant, from one event or from one event per flow. All of them join one
// component, and the instant ends with exactly one solve of it.
TEST(FlowSolverCoalescing, StartsAtOneInstantSolveOnce) {
  constexpr int kHosts = 40;
  constexpr int kFlowsPerHost = 10;
  constexpr int kFlows = kHosts * kFlowsPerHost;
  for (const bool one_event : {true, false}) {
    SCOPED_TRACE(one_event ? "one event" : "one event per flow");
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    for (int h = 0; h < kHosts; ++h) {
      const double cap = h % 7 == 0 ? 600.0 : 1000.0;
      tx.push_back(fn.add_port(cap));
      rx.push_back(fn.add_port(cap));
    }
    std::vector<std::vector<PortId>> paths;
    for (int h = 0; h < kHosts; ++h)
      for (int j = 0; j < kFlowsPerHost; ++j)
        paths.push_back({tx[h], rx[(h + 1 + 3 * j) % kHosts]});
    int completed = 0;
    const auto start = [&](const std::vector<PortId>& path, std::size_t i) {
      fn.start_flow(path, 2000 + 100 * static_cast<Bytes>(i % 13),
                    [&completed] { ++completed; });
    };
    if (one_event) {
      sim.at(1.0, [&] {
        for (std::size_t i = 0; i < paths.size(); ++i) start(paths[i], i);
      });
    } else {
      for (std::size_t i = 0; i < paths.size(); ++i)
        sim.at(1.0, [&, i] { start(paths[i], i); });
    }
    sim.run_until(1.0);
    EXPECT_EQ(fn.solver_solves(), 1u);
    EXPECT_EQ(fn.solver_flows_solved(), static_cast<std::uint64_t>(kFlows));
    expect_rates_match_oracle(fn, "after the burst");
    sim.run();
    EXPECT_EQ(completed, kFlows);
  }
}

// The ChunkedStream shape: a window of kPipelineDepth equal chunks
// completes at one instant, and each completion callback launches the next
// chunk at that instant. Retiring the finished flows and starting their
// successors make one re-solve of the component they share with standing
// traffic, not one each.
TEST(FlowSolverCoalescing, ChunkHandoffSolvesOnce) {
  simkit::Simulator sim;
  Fabric fabric(sim, /*link_latency=*/0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  const HostId c = fabric.add_host(100.0);
  FlowNetwork& fn = fabric.network();
  fabric.transfer(c, b, 1u << 20, [] {});  // standing traffic into b
  std::size_t delivered = 0;
  auto stream = ChunkedStream::start(
      fabric, a, b, 1000, ChunkPolicy{.chunk_bytes = 100},
      [&](const ChunkedStream::Chunk&) { ++delivered; });
  finish_instant(sim);
  int handoffs = 0;
  while (delivered < stream->chunks_total()) {
    const std::size_t before = delivered;
    const std::uint64_t solves = fn.solver_solves();
    ASSERT_TRUE(sim.step());
    finish_instant(sim);
    if (delivered != before) {
      ++handoffs;
      EXPECT_EQ(fn.solver_solves(), solves + 1) << "chunk " << delivered;
    }
    expect_rates_match_oracle(fn, "after a chunk hand-off");
  }
  EXPECT_EQ(handoffs, (10 + kPipelineDepth - 1) / kPipelineDepth);
  EXPECT_TRUE(stream->done());
}

// Fabric::set_host_rate_factor sets a host's TX and RX capacity with two
// set_capacity calls. With both ports in one component, the instant ends
// with one solve of it.
TEST(FlowSolverCoalescing, HostRateFactorSolvesOnce) {
  simkit::Simulator sim;
  Fabric fabric(sim, /*link_latency=*/0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  const HostId c = fabric.add_host(100.0);
  FlowNetwork& fn = fabric.network();
  // a->b and b->a use a's TX and RX; c's two flows join them.
  const FlowId a_to_b = fabric.transfer(a, b, 1u << 20, [] {});
  fabric.transfer(b, a, 1u << 20, [] {});
  fabric.transfer(c, a, 1u << 20, [] {});
  fabric.transfer(c, b, 1u << 20, [] {});
  finish_instant(sim);
  const std::uint64_t solves = fn.solver_solves();
  const std::uint64_t solved = fn.solver_flows_solved();
  sim.at(1.0, [&] { fabric.set_host_rate_factor(a, 0.25); });
  sim.run_until(1.0);
  EXPECT_EQ(fn.solver_solves(), solves + 1);
  EXPECT_EQ(fn.solver_flows_solved(), solved + 4);
  expect_rates_match_oracle(fn, "after the rate factor");
  EXPECT_EQ(fn.flow_rate(a_to_b), 25.0);  // held to a's quartered TX
}

// A flow started and cancelled at one instant leaves every component as it
// was: the instant ends without a solve, and the completion timer is
// neither armed nor cancelled, whether or not other flows hold one.
TEST(FlowSolverCoalescing, StartAndCancelAtOneInstantSolveNothing) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId idle = fn.add_port(100.0);
  const PortId busy = fn.add_port(100.0);
  bool fired = false;
  sim.at(1.0, [&] {
    fn.cancel_flow(fn.start_flow({idle}, 1000, [&fired] { fired = true; }));
  });
  sim.run_until(1.0);
  EXPECT_EQ(fn.solver_solves(), 0u);
  EXPECT_EQ(sim.pending_count(), 0u);  // no timer
  EXPECT_EQ(sim.cancelled(), 0u);

  bool busy_done = false;
  fn.start_flow({busy}, 1000, [&busy_done] { busy_done = true; });
  finish_instant(sim);
  const std::uint64_t solves = fn.solver_solves();
  ASSERT_EQ(sim.pending_count(), 1u);  // busy's completion timer
  sim.at(2.0, [&] {
    fn.cancel_flow(fn.start_flow({idle}, 1000, [&fired] { fired = true; }));
  });
  sim.run_until(2.0);
  EXPECT_EQ(fn.solver_solves(), solves);
  EXPECT_EQ(sim.pending_count(), 1u);  // the same timer, not a re-armed one
  EXPECT_EQ(sim.cancelled(), 0u);
  sim.run();
  EXPECT_TRUE(busy_done);
  EXPECT_FALSE(fired);
  EXPECT_DOUBLE_EQ(sim.now(), 11.0);  // busy ran alone at 100 B/s from t=1
}

// Random instants, each holding several changes from separate events,
// zero-delay follow-up events and completion callbacks that start the
// next flow. At every instant boundary the rates match the oracle
// exactly, and the instant swept once if it touched a port of any
// component with flows, else not at all. The sweep re-solved at most the
// flows of the components holding a port it touched, and every flow
// outside them kept its rate.
TEST(FlowSolverCoalescing, RandomInstantsSolveEachDirtyComponentOnce) {
  for (int seed = 1; seed <= fuzz_seed_count(8); ++seed) {
    SCOPED_TRACE(seed);
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    constexpr int kPorts = 24;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(fn.add_port(rng.uniform(10.0, 500.0)));

    std::map<FlowId, std::vector<PortId>> live;
    std::vector<PortId> touched;
    std::vector<FlowId> ids;  // by start order
    std::function<void()> start = [&] {
      const int cluster = static_cast<int>(rng.uniform_u64(kPorts / 4)) * 4;
      std::vector<PortId> path{ports[cluster + rng.uniform_u64(4)]};
      const PortId second = rng.uniform() < 0.2
                                ? ports[rng.uniform_u64(kPorts)]
                                : ports[cluster + rng.uniform_u64(4)];
      if (second != path[0]) path.push_back(second);
      // Now and then a zero-byte flow, which completes as its own event.
      const Bytes bytes = rng.chance(0.05) ? 0 : 1 + rng.uniform_u64(2000);
      const std::size_t slot = ids.size();
      ids.push_back(fn.start_flow(path, bytes, [&, slot] {
        const auto it = live.find(ids[slot]);
        if (it != live.end()) {
          touched.insert(touched.end(), it->second.begin(), it->second.end());
          live.erase(it);
        }
        if (rng.chance(0.5)) start();  // the next chunk, same instant
      }));
      if (bytes == 0) return;
      touched.insert(touched.end(), path.begin(), path.end());
      live.emplace(ids[slot], std::move(path));
    };
    const auto random_op = [&] {
      const double roll = rng.uniform();
      if (roll < 0.5 || live.empty()) {
        start();
      } else if (roll < 0.8) {
        auto it = live.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.uniform_u64(live.size())));
        ASSERT_TRUE(fn.cancel_flow(it->first));
        touched.insert(touched.end(), it->second.begin(), it->second.end());
        live.erase(it);
      } else {
        const PortId p = ports[rng.uniform_u64(kPorts)];
        fn.set_capacity(p, rng.uniform(10.0, 500.0));
        touched.push_back(p);
      }
    };

    int instants = 0;
    for (int round = 0; round < 150; ++round) {
      // Several events at one time (sometimes the current one), some with
      // a zero-delay follow-up.
      const double t = sim.now() + 0.5 * static_cast<double>(rng.uniform_u64(6));
      const std::uint64_t events = 1 + rng.uniform_u64(6);
      for (std::uint64_t e = 0; e < events; ++e) {
        sim.at(t, [&] {
          random_op();
          if (rng.chance(0.3)) sim.after(0.0, random_op);
        });
      }
      // Step through every instant up to t, completions included.
      while (true) {
        const std::uint64_t solves = fn.solver_solves();
        const std::uint64_t solved = fn.solver_flows_solved();
        std::map<FlowId, Rate> before;
        for (const auto& [id, path] : live) before[id] = fn.flow_rate(id);
        ASSERT_TRUE(sim.step());
        finish_instant(sim);
        ++instants;
        const DirtyWork want = dirty_work(live, touched, kPorts);
        touched.clear();
        ASSERT_EQ(fn.solver_solves() - solves, want.components > 0 ? 1u : 0u)
            << "round " << round << " t " << sim.now();
        ASSERT_LE(fn.solver_flows_solved() - solved, want.flows)
            << "round " << round << " t " << sim.now();
        for (FlowId id : want.clean)
          ASSERT_EQ(fn.flow_rate(id), before.at(id))
              << "round " << round << " t " << sim.now() << " flow " << id;
        ASSERT_EQ(fn.active_flows(), live.size());
        expect_rates_match_oracle(fn, "instant boundary");
        if (sim.now() >= t) break;
      }
    }
    EXPECT_GT(instants, 150);  // completion instants came in between
    // Cancel everything at one instant: no component is left to solve, and
    // the completion timer goes.
    const std::uint64_t solves = fn.solver_solves();
    sim.at(sim.now(), [&] {
      for (const auto& [id, path] : live) ASSERT_TRUE(fn.cancel_flow(id));
    });
    finish_instant(sim);
    EXPECT_EQ(fn.solver_solves(), solves);
    EXPECT_EQ(fn.active_flows(), 0u);
    EXPECT_EQ(sim.pending_count(), 0u);
  }
}

}  // namespace
}  // namespace vdc::net
