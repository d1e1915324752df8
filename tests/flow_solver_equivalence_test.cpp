// Production-solver equivalence: at every instant boundary, on adversarial
// topologies, the live rates must be bit-for-bit those of oracle_rates()
// below, a from-scratch solve over its own adjacency with its own copy of
// the plain water-filling loop and share floor. It reads only the flow
// table (FlowNetwork::for_each_flow) and port capacities, so the two
// share no solver code. The live path re-solves only the ports and flows
// a change reaches, and falls back to a full solve of the component (on
// dense slot arrays, testing only each level's candidate flows) at a near
// tie, so equality is a property these tests check, not a given. They
// catch a propagation that stops short, a missed near tie, float ops
// reordered, a candidate filter that skips a flow the plain loop would
// freeze, and bookkeeping rot (stale adjacency, missed dirty marks,
// component under-collection, a completion heap that loses a timer). The
// network re-solves once per simulated instant, after every change of
// that instant; the coalescing cases below count the solves of each
// instant against the dirty components an independent union-find finds.
// Seed counts widen with VDC_FUZZ_SEEDS.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <unordered_set>
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

// The solver's anti-starvation share floor, restated: a port's share
// never drops below this fraction of its capacity (nor below 1e-300).
constexpr double kShareFloorFraction = 1e-9;
constexpr double kAbsoluteRateFloor = 1e-300;

double floored_share(double residual, std::uint32_t unfixed, double cap) {
  const double share = residual / unfixed;
  const double floor = std::max(cap * kShareFloorFraction,
                                kAbsoluteRateFloor);
  return std::max(share, floor);
}

using Paths = std::map<FlowId, std::vector<PortId>>;

/// The plain water-filling loop over one connected component (flow ids
/// sorted ascending). Flow ids ascending and component ports ascending
/// make every float op order-determined.
std::vector<Rate> oracle_solve_component(const FlowNetwork& fn,
                                         const Paths& paths,
                                         const std::vector<FlowId>& ids) {
  std::vector<PortId> cports;
  for (FlowId id : ids)
    for (PortId p : paths.at(id)) cports.push_back(p);
  std::sort(cports.begin(), cports.end());
  cports.erase(std::unique(cports.begin(), cports.end()), cports.end());
  const auto local = [&](PortId p) {
    return static_cast<std::size_t>(
        std::lower_bound(cports.begin(), cports.end(), p) - cports.begin());
  };

  std::vector<double> residual(cports.size());
  std::vector<std::uint32_t> unfixed(cports.size(), 0);
  for (std::size_t i = 0; i < cports.size(); ++i)
    residual[i] = fn.capacity(cports[i]);
  for (FlowId id : ids)
    for (PortId p : paths.at(id)) ++unfixed[local(p)];

  std::vector<char> fixed(ids.size(), 0);
  std::vector<Rate> rates(ids.size(), 0.0);
  std::size_t remaining_flows = ids.size();
  while (remaining_flows > 0) {
    // Find the port giving the smallest fair share among loaded ports.
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cports.size(); ++i) {
      if (unfixed[i] == 0) continue;
      const double share =
          floored_share(residual[i], unfixed[i], fn.capacity(cports[i]));
      best_share = std::min(best_share, share);
    }
    VDC_ASSERT(std::isfinite(best_share));
    VDC_ASSERT_MSG(best_share > 0.0, "water-filling share underflowed");

    // Freeze every unfixed flow crossing a port that is saturated at
    // best_share (within numerical tolerance).
    bool froze_any = false;
    for (std::size_t fi = 0; fi < ids.size(); ++fi) {
      if (fixed[fi]) continue;
      const std::vector<PortId>& path = paths.at(ids[fi]);
      bool bottlenecked = false;
      for (PortId p : path) {
        const std::size_t i = local(p);
        const double share =
            floored_share(residual[i], unfixed[i], fn.capacity(cports[i]));
        if (share <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rates[fi] = best_share;
      fixed[fi] = 1;
      froze_any = true;
      --remaining_flows;
      for (PortId p : path) {
        const std::size_t i = local(p);
        residual[i] -= best_share;
        if (residual[i] < 0.0) residual[i] = 0.0;
        --unfixed[i];
      }
    }
    VDC_ASSERT_MSG(froze_any, "water-filling failed to make progress");
  }
  return rates;
}

/// Full from-scratch max-min solve of the active flows: (flow, rate)
/// sorted by flow id.
std::vector<std::pair<FlowId, Rate>> oracle_rates(const FlowNetwork& fn) {
  // Build the adjacency from the flow table alone (deliberately NOT from
  // the solver's per-port lists, so broken incremental bookkeeping can't
  // fool the check).
  Paths paths;
  fn.for_each_flow([&](FlowId id, const std::vector<PortId>& path) {
    paths.emplace(id, path);
  });
  std::map<PortId, std::vector<FlowId>> on_port;
  std::vector<FlowId> ids;  // ascending: `paths` is ordered
  ids.reserve(paths.size());
  for (const auto& [id, path] : paths) {
    ids.push_back(id);
    for (PortId p : path) on_port[p].push_back(id);
  }

  std::unordered_set<FlowId> seen;
  std::unordered_set<PortId> ports_seen;
  std::vector<std::pair<FlowId, Rate>> out;
  out.reserve(ids.size());
  for (FlowId seed : ids) {
    if (seen.count(seed)) continue;
    // Component BFS over the side adjacency.
    std::vector<FlowId> component;
    std::vector<FlowId> stack{seed};
    seen.insert(seed);
    while (!stack.empty()) {
      const FlowId id = stack.back();
      stack.pop_back();
      component.push_back(id);
      for (PortId p : paths.at(id)) {
        if (!ports_seen.insert(p).second) continue;
        for (FlowId other : on_port[p])
          if (seen.insert(other).second) stack.push_back(other);
      }
    }
    std::sort(component.begin(), component.end());
    const auto rates = oracle_solve_component(fn, paths, component);
    for (std::size_t i = 0; i < component.size(); ++i)
      out.emplace_back(component[i], rates[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A rate as a hex float, so a one-ulp mismatch shows in its last digit.
std::string hex(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", rate);
  return buf;
}

void expect_rates_match_oracle(FlowNetwork& fn, const char* where) {
  finish_instant(fn.sim());
  const auto oracle = oracle_rates(fn);
  for (const auto& [id, rate] : oracle) {
    // Bitwise equality, not EXPECT_NEAR: the incremental path must run the
    // exact float ops the full solve runs.
    ASSERT_EQ(fn.flow_rate(id), rate)
        << where << " flow " << id << ": " << hex(fn.flow_rate(id))
        << " against the oracle's " << hex(rate);
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
// rates must match the oracle bitwise after every operation.
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
// the live rates must match the from-scratch oracle bitwise, every flow
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

// Near ties: port capacities are retuned so that fair shares differ by
// exactly 0, 1e-13, 1e-12 and 1e-11 relative, straddling the water-filling
// band (1e-12), plus 1e-9 at the edge of the wider band that picks a
// level's candidate flows. Which ports freeze together in a level then
// hinges on the last bits of each share, so any divergence from the
// plain loop's tests or float ops shows up as a rate mismatch.
TEST(FlowSolverEquivalence, NearTieSharesMatchOracleBitwise) {
  constexpr double kDeltas[] = {0.0, 1e-13, 1e-12, 1e-11, 1e-9};
  constexpr double kUnitShare = 100.0;
  for (int seed = 1; seed <= fuzz_seed_count(8); ++seed) {
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));

    constexpr int kPorts = 10;
    std::vector<PortId> ports;
    for (int i = 0; i < kPorts; ++i)
      ports.push_back(fn.add_port(kUnitShare * (1.0 + kDeltas[i % 5])));
    std::vector<std::pair<FlowId, std::vector<PortId>>> live;
    const auto flows_on = [&](PortId p) {
      std::size_t n = 0;
      for (const auto& [id, path] : live)
        for (PortId q : path) n += q == p;
      return n;
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
        // Retune one port so its share is the unit share times 1 + delta.
        const PortId p = ports[rng.uniform_u64(kPorts)];
        const double flows = static_cast<double>(std::max<std::size_t>(
            1, flows_on(p)));
        fn.set_capacity(p, kUnitShare * flows *
                               (1.0 + kDeltas[rng.uniform_u64(5)]));
      }
      if (rng.chance(0.1)) sim.run_until(sim.now() + rng.uniform(0.0, 1.0));
      expect_rates_match_oracle(fn, "near-tie op");
    }
  }
}

// A share that rounds into the band within one level. Port Q carries the
// m lowest-id flows, each of which also crosses port P, which carries u
// flows in all. P's share starts one ulp or so above the band of Q's, so
// P is not bottlenecked when the level begins. As Q's flows freeze at
// Q's share, rounding in (r - b) / (u - 1) brings P's share into the
// band, and the plain loop freezes P's other flows in the same level.
// The live solver only gets that right because its candidate band is
// wider than the bottleneck band (kCandidateMargin). The capacities come
// from a search for exactly this.
TEST(FlowSolverEquivalence, ShareRoundingIntoTheBandMatchesOracle) {
  struct Case {
    std::uint32_t m;
    std::uint32_t u;
    double q_cap;
    double p_cap;
  };
  constexpr Case kCases[] = {
      {34, 15398, 1601136548.345949, 725126487395.7523},
      {42, 19747, 162849687.58031848, 76566494777.42302},
      {36, 18062, 1143202289.8735337, 573569993325.4564},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(testing::Message() << "m " << c.m << ", u " << c.u);
    // P starts above the band.
    ASSERT_GT(c.p_cap / c.u, c.q_cap / c.m * (1.0 + 1e-12));
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    const PortId q = fn.add_port(c.q_cap);
    const PortId p = fn.add_port(c.p_cap);
    std::vector<FlowId> ids;
    for (std::uint32_t i = 0; i < c.u; ++i)
      ids.push_back(fn.start_flow(i < c.m ? std::vector<PortId>{q, p}
                                          : std::vector<PortId>{p},
                                  1ull << 40, [] {}));
    expect_rates_match_oracle(fn, "band edge");
    // Q's level froze P's own flows too, starting with the first.
    EXPECT_EQ(fn.flow_rate(ids[c.m]), fn.flow_rate(ids.front()));
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
// join one component of several hundred. NIC rates differ by a few
// percent, so no two levels coincide. Starts are staggered, sizes vary,
// and each completion starts its chain's next flow at the same instant.
// At every instant the rates match the oracle bitwise; over the run a
// transfer (a flow started) re-solves at most 40 flows, where a re-solve
// of the whole component would take hundreds.
TEST(FlowSolverLocal, FleetShapedRunResolvesFewFlowsPerTransfer) {
  constexpr int kHosts = 60;
  constexpr int kChains = 4;          // concurrent chains per host
  constexpr int kFlowsPerChain = 3;   // flows each chain sends in turn
  for (int seed = 1; seed <= fuzz_seed_count(2); ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    for (int h = 0; h < kHosts; ++h) {
      const double nic = 1.25e9 * rng.uniform(0.95, 1.05);
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
      fn.start_flow({tx[h], rx[holder]}, 2'000'000 + rng.uniform_u64(6'000'000),
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
    const double per_transfer = static_cast<double>(fn.solver_flows_solved()) /
                                static_cast<double>(transfers);
    EXPECT_LE(per_transfer, 40.0);
    std::printf("seed %d: %.1f flows re-solved per transfer, %llu fallbacks\n",
                seed, per_transfer,
                static_cast<unsigned long long>(fn.solver_fallbacks()));
  }
}

// Two ports that share no flow but sit in one component, through a third,
// with shares 5e-13 apart: inside the 1e-12 band, so the full solve
// freezes both at the lower share. The local re-solve cannot see that
// coupling from either port's flows, so it must fall back, and the rates
// must still be the oracle's.
TEST(FlowSolverLocal, NearTieTakesTheFallback) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(100.0);
  const PortId b = fn.add_port(100.0 * (1.0 + 5e-13));
  const PortId hub = fn.add_port(1000.0);
  const FlowId fa = fn.start_flow({a, hub}, 1u << 30, [] {});
  expect_rates_match_oracle(fn, "first flow");
  EXPECT_EQ(fn.solver_fallbacks(), 0u);
  const FlowId fb = fn.start_flow({b, hub}, 1u << 30, [] {});
  expect_rates_match_oracle(fn, "near tie");
  EXPECT_EQ(fn.solver_fallbacks(), 1u);
  EXPECT_EQ(fn.flow_rate(fb), fn.flow_rate(fa));  // one level
  EXPECT_EQ(fn.flow_rate(fa), 100.0);
  // The near tie stands, so the next change solves in full again.
  fn.set_capacity(hub, 900.0);
  expect_rates_match_oracle(fn, "near tie, hub changed");
  EXPECT_EQ(fn.solver_fallbacks(), 2u);
  // Lift b out of the band: the full solve finds no near tie, and the
  // changes after it are local again.
  fn.set_capacity(b, 150.0);
  expect_rates_match_oracle(fn, "tie lifted");
  EXPECT_EQ(fn.solver_fallbacks(), 3u);
  fn.set_capacity(hub, 800.0);
  fn.cancel_flow(fa);
  expect_rates_match_oracle(fn, "local again");
  EXPECT_EQ(fn.solver_fallbacks(), 3u);
  EXPECT_EQ(fn.flow_rate(fb), 150.0);
}

// Random NIC rates, so every level is its own: random starts, cancels
// and capacity changes stay local, with no fallback, and match the
// oracle bitwise.
TEST(FlowSolverLocal, CleanLevelsTakeNoFallback) {
  for (int seed = 1; seed <= fuzz_seed_count(4); ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    simkit::Simulator sim;
    FlowNetwork fn(sim);
    Rng rng(static_cast<std::uint64_t>(seed));
    constexpr int kHosts = 16;
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    for (int h = 0; h < kHosts; ++h) {
      tx.push_back(fn.add_port(rng.uniform(500.0, 1500.0)));
      rx.push_back(fn.add_port(rng.uniform(500.0, 1500.0)));
    }
    std::vector<FlowId> live;
    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform();
      if (roll < 0.6 || live.empty()) {
        const auto h = rng.uniform_u64(kHosts);
        const auto d = (h + 1 + rng.uniform_u64(kHosts - 1)) % kHosts;
        live.push_back(fn.start_flow({tx[h], rx[d]}, 1ull << 40, [] {}));
      } else if (roll < 0.9) {
        const std::size_t victim = rng.uniform_u64(live.size());
        fn.cancel_flow(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const auto h = rng.uniform_u64(kHosts);
        fn.set_capacity(rng.chance(0.5) ? tx[h] : rx[h],
                        rng.uniform(500.0, 1500.0));
      }
      expect_rates_match_oracle(fn, "clean op");
    }
    EXPECT_EQ(fn.solver_fallbacks(), 0u);
    EXPECT_LT(fn.solver_flows_solved(), 300u * live.size());
  }
}

// A standing component re-solved 10k times leaves a stale completion
// entry per flow per solve; compaction must keep the heap within
// 2 x active + 1024 entries without moving any timer.
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

// --- coalescing: one re-solve per dirty component per instant --------------

/// What an instant's end must re-solve, found without the solver: the
/// components (a union-find over the live flows' paths) that hold a port
/// the instant touched, and the flows in them.
struct DirtyWork {
  std::uint64_t components = 0;
  std::uint64_t flows = 0;
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
    if (!dirty[root]) continue;
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

// The ChunkedStream shape: a chunk's completion callback launches the next
// chunk at the same instant. Retiring the finished flow and starting its
// successor make one re-solve of the component they share with standing
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
      fabric, a, b, 1000, ChunkPolicy{.chunk_bytes = 100, .pipeline_depth = 1},
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
  EXPECT_EQ(handoffs, 10);
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
// bitwise, and the instant solved each dirty component exactly once: as
// many solves as there are components holding a port it touched. The
// flows it re-solved are at most those the components hold, plus, if it
// fell back to a full solve, that solve's whole component again.
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
        const std::uint64_t fallbacks = fn.solver_fallbacks();
        ASSERT_TRUE(sim.step());
        finish_instant(sim);
        ++instants;
        const DirtyWork want = dirty_work(live, touched, kPorts);
        touched.clear();
        ASSERT_EQ(fn.solver_solves() - solves, want.components)
            << "round " << round << " t " << sim.now();
        const bool fell_back = fn.solver_fallbacks() != fallbacks;
        ASSERT_LE(fn.solver_flows_solved() - solved,
                  (fell_back ? 2 : 1) * want.flows)
            << "round " << round << " t " << sim.now();
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
