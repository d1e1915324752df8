// Tests for the flow-level network: max-min fair sharing, fan-in
// contention (the NAS bottleneck phenomenon), latency, cancellation.

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "net/chunked_stream.hpp"
#include "net/fabric.hpp"
#include "net/flow_network.hpp"

namespace vdc::net {
namespace {

TEST(FlowNetwork, SingleFlowAtFullRate) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);  // 100 B/s
  double done = -1;
  fn.start_flow({p}, 1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST(FlowNetwork, TwoFlowsShareFairly) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  std::vector<double> done;
  fn.start_flow({p}, 1000, [&] { done.push_back(sim.now()); });
  fn.start_flow({p}, 1000, [&] { done.push_back(sim.now()); });
  sim.run();
  // Both share 50 B/s and finish together at t = 20.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 20.0, 1e-6);
  EXPECT_NEAR(done[1], 20.0, 1e-6);
}

TEST(FlowNetwork, ShortFlowFreesBandwidth) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  double long_done = -1, short_done = -1;
  fn.start_flow({p}, 1500, [&] { long_done = sim.now(); });
  fn.start_flow({p}, 500, [&] { short_done = sim.now(); });
  sim.run();
  // Shared 50/50 until the short flow finishes at t=10 (500B at 50B/s);
  // the long one then has 1000B left at 100B/s: done at t=20.
  EXPECT_NEAR(short_done, 10.0, 1e-6);
  EXPECT_NEAR(long_done, 20.0, 1e-6);
}

TEST(FlowNetwork, FanInContention) {
  // N senders into one sink port: each gets 1/N — the NAS phenomenon.
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  std::vector<PortId> tx;
  for (int i = 0; i < 4; ++i) tx.push_back(fn.add_port(1000.0));
  const PortId sink = fn.add_port(100.0);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i)
    fn.start_flow({tx[i], sink}, 1000, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (double d : done) EXPECT_NEAR(d, 40.0, 1e-6);  // 25 B/s each
}

TEST(FlowNetwork, BottleneckIsThePathMinimum) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId fast = fn.add_port(1000.0);
  const PortId slow = fn.add_port(10.0);
  double done = -1;
  fn.start_flow({fast, slow}, 100, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST(FlowNetwork, MaxMinUnevenTopology) {
  // Flow A crosses the narrow port; flows B and C cross only the wide one.
  // Water-filling: A gets 10 (narrow saturated); B and C split the
  // remaining 90 of the wide port -> 45 each.
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId wide = fn.add_port(100.0);
  const PortId narrow = fn.add_port(10.0);
  const FlowId fa = fn.start_flow({wide, narrow}, 1000000, [] {});
  const FlowId fb = fn.start_flow({wide}, 1000000, [] {});
  const FlowId fc = fn.start_flow({wide}, 1000000, [] {});
  // Rates are resolved once the instant of the (zero-latency) starts is
  // over: finish it, and inspect them before any completion event fires.
  sim.run_until(sim.now());
  EXPECT_NEAR(fn.flow_rate(fa), 10.0, 1e-9);
  EXPECT_NEAR(fn.flow_rate(fb), 45.0, 1e-9);
  EXPECT_NEAR(fn.flow_rate(fc), 45.0, 1e-9);
}

TEST(FlowNetwork, RatesNeverExceedPortCapacity) {
  simkit::Simulator sim;
  Rng rng(99);
  FlowNetwork fn(sim);
  std::vector<PortId> ports;
  for (int i = 0; i < 6; ++i)
    ports.push_back(fn.add_port(rng.uniform(10.0, 200.0)));
  std::vector<FlowId> flows;
  for (int i = 0; i < 30; ++i) {
    std::vector<PortId> path{
        static_cast<PortId>(ports[rng.uniform_u64(6)])};
    const PortId second = ports[rng.uniform_u64(6)];
    if (second != path[0]) path.push_back(second);
    flows.push_back(fn.start_flow(path, 1u << 30, [] {}));
  }
  // Property: the rates of the flows crossing a port sum to at most its
  // capacity, exactly (both are whole bytes per second).
  const auto check = [&](const char* where) {
    sim.run_until(sim.now());  // the instant's changes end with the solve
    std::vector<double> load(ports.size(), 0.0);
    fn.for_each_flow([&](FlowId id, const std::vector<PortId>& path) {
      EXPECT_GT(fn.flow_rate(id), 0.0) << where;
      for (PortId p : path) load[p] += fn.flow_rate(id);
    });
    for (PortId p : ports) EXPECT_LE(load[p], fn.capacity(p)) << where;
  };
  check("after the starts");
  // A round of cancels and capacity changes.
  for (int i = 0; i < 10; ++i) fn.cancel_flow(flows[rng.uniform_u64(30)]);
  for (int i = 0; i < 3; ++i)
    fn.set_capacity(ports[rng.uniform_u64(6)], rng.uniform(10.0, 200.0));
  check("after cancels and capacity changes");
}

TEST(FlowNetwork, LatencyDelaysStart) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  double done = -1;
  fn.start_flow({p}, 1000, [&] { done = sim.now(); }, /*latency=*/2.0);
  sim.run();
  EXPECT_NEAR(done, 12.0, 1e-6);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatency) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  fn.add_port(100.0);
  double done = -1;
  fn.start_flow({}, 0, [&] { done = sim.now(); }, 0.5);
  sim.run();
  EXPECT_NEAR(done, 0.5, 1e-9);
}

TEST(FlowNetwork, CancelStopsCompletion) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  bool done = false;
  const FlowId f = fn.start_flow({p}, 1000, [&] { done = true; });
  sim.at(1.0, [&] { EXPECT_TRUE(fn.cancel_flow(f)); });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_FALSE(fn.cancel_flow(f));  // already gone
}

TEST(FlowNetwork, CancelDuringLatency) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  bool done = false;
  const FlowId f = fn.start_flow({p}, 1000, [&] { done = true; }, 5.0);
  sim.at(1.0, [&] { EXPECT_TRUE(fn.cancel_flow(f)); });
  sim.run();
  EXPECT_FALSE(done);
}

TEST(FlowNetwork, CancelReallocatesBandwidth) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  double done = -1;
  fn.start_flow({p}, 1000, [&] { done = sim.now(); });
  const FlowId f2 = fn.start_flow({p}, 100000, [] {});
  sim.at(10.0, [&] { fn.cancel_flow(f2); });
  sim.run();
  // Shared until t=10 (500 B delivered), then full rate: +5s.
  EXPECT_NEAR(done, 15.0, 1e-6);
}

TEST(FlowNetwork, SetCapacityRescalesInFlight) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  double done = -1;
  fn.start_flow({p}, 1000, [&] { done = sim.now(); });
  sim.at(5.0, [&] { fn.set_capacity(p, 50.0); });
  sim.run();
  // 500 B at 100 B/s, remaining 500 B at 50 B/s -> 5 + 10 = 15.
  EXPECT_NEAR(done, 15.0, 1e-6);
}

TEST(FlowNetwork, PortByteAccounting) {
  // 1234 B through one 100 B/s port, then 300 B more at a 50 B/s
  // bottleneck: each flow finishes exactly when its bytes have crossed.
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  const PortId slow = fn.add_port(50.0);
  double first = -1, second = -1;
  fn.start_flow({p}, 1234, [&] { first = sim.now(); });
  sim.at(20.0, [&] {
    fn.start_flow({p, slow}, 300, [&] { second = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(first, 12.34, 1e-9);
  EXPECT_NEAR(second, 26.0, 1e-9);
}

TEST(FlowNetwork, InvalidPortCapacityRejected) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  EXPECT_THROW(fn.add_port(0.0), ConfigError);
  EXPECT_THROW(fn.add_port(-5.0), ConfigError);
}

TEST(Fabric, HostToHostUsesBothNics) {
  simkit::Simulator sim;
  Fabric fabric(sim, /*link_latency=*/0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  double done = -1;
  fabric.transfer(a, b, 1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST(Fabric, DisjointPairsDontContend) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 4; ++i) hosts.push_back(fabric.add_host(100.0));
  std::vector<double> done;
  fabric.transfer(hosts[0], hosts[1], 1000,
                  [&] { done.push_back(sim.now()); });
  fabric.transfer(hosts[2], hosts[3], 1000,
                  [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-6);
  EXPECT_NEAR(done[1], 10.0, 1e-6);
}

TEST(Fabric, SharedPortBottlenecksFanIn) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  std::vector<HostId> hosts;
  for (int i = 0; i < 4; ++i) hosts.push_back(fabric.add_host(1000.0));
  const PortId nas = fabric.add_shared_port(100.0);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i)
    fabric.transfer_to_port(hosts[i], nas, 1000,
                            [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 4u);
  for (double d : done) EXPECT_NEAR(d, 40.0, 1e-6);
}

TEST(Fabric, RackLocalTrafficSkipsTheUplink) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0, /*rack=*/0);
  const HostId b = fabric.add_host(100.0, /*rack=*/0);
  fabric.set_rack_uplink(0, 10.0);  // slow uplink, but unused intra-rack
  double done = -1;
  fabric.transfer(a, b, 1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);  // NIC-limited, not uplink-limited
}

TEST(Fabric, CrossRackTrafficSqueezesThroughTheUplink) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0, 0);
  const HostId b = fabric.add_host(100.0, 1);
  fabric.set_rack_uplink(0, 10.0);
  fabric.set_rack_uplink(1, 10.0);
  EXPECT_EQ(fabric.host_rack(a), 0u);
  EXPECT_EQ(fabric.host_rack(b), 1u);
  double done = -1;
  fabric.transfer(a, b, 1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 100.0, 1e-6);  // limited by the 10 B/s core path
}

TEST(Fabric, UplinkSharedByConcurrentCrossRackFlows) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  std::vector<HostId> rack0, rack1;
  for (int i = 0; i < 2; ++i) rack0.push_back(fabric.add_host(1000.0, 0));
  for (int i = 0; i < 2; ++i) rack1.push_back(fabric.add_host(1000.0, 1));
  fabric.set_rack_uplink(0, 100.0);
  std::vector<double> done;
  fabric.transfer(rack0[0], rack1[0], 1000,
                  [&] { done.push_back(sim.now()); });
  fabric.transfer(rack0[1], rack1[1], 1000,
                  [&] { done.push_back(sim.now()); });
  sim.run();
  // Two flows share rack 0's 100 B/s uplink: both done at 20s.
  ASSERT_EQ(done.size(), 2u);
  for (double d : done) EXPECT_NEAR(d, 20.0, 1e-6);
}

TEST(Fabric, RacksWithoutUplinksAreFlat) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0, 3);
  const HostId b = fabric.add_host(100.0, 9);
  double done = -1;
  fabric.transfer(a, b, 1000, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 10.0, 1e-6);
}

TEST(Fabric, DuplicateUplinkRejected) {
  simkit::Simulator sim;
  Fabric fabric(sim);
  fabric.set_rack_uplink(0, 100.0);
  EXPECT_THROW(fabric.set_rack_uplink(0, 100.0), ConfigError);
}

TEST(Fabric, LoopbackRejected) {
  simkit::Simulator sim;
  Fabric fabric(sim);
  const HostId a = fabric.add_host(100.0);
  EXPECT_THROW(fabric.transfer(a, a, 10, [] {}), InvariantError);
}

// Regression: the gauge used to be published as active_flows()+1 at start
// and never decremented, so it could only grow. It must track every start,
// completion and cancel — including latency-stage flows — and return to 0
// at quiescence.
TEST(Fabric, ActiveFlowsGaugeReturnsToZero) {
  simkit::Simulator sim;
  Fabric fabric(sim, /*link_latency=*/1.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  const HostId c = fabric.add_host(100.0);
  auto& metrics = sim.telemetry().metrics();

  fabric.transfer(a, b, 1000, [] {});
  fabric.transfer(c, b, 1000, [] {});
  const FlowId doomed = fabric.transfer(a, c, 1u << 20, [] {});
  // All three are in their latency stage right now; the gauge counts them.
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 3.0);
  sim.at(2.0, [&] {
    EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 3.0);
    fabric.cancel(doomed);
    EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 2.0);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.peak("net.active_flows"), 3.0);
}

TEST(Fabric, ActiveFlowsGaugeZeroAfterCancelDuringLatency) {
  simkit::Simulator sim;
  Fabric fabric(sim, /*link_latency=*/5.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  auto& metrics = sim.telemetry().metrics();
  const FlowId f = fabric.transfer(a, b, 1000, [] {});
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 1.0);
  sim.at(1.0, [&] { EXPECT_TRUE(fabric.cancel(f)); });
  sim.run();
  EXPECT_DOUBLE_EQ(metrics.value("net.active_flows"), 0.0);
}

// Capacities are whole bytes per second: anything under 1 B/s is
// rejected, whether a port is added, resized or its host degraded.
TEST(FlowNetwork, SubByteCapacityRejected) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  FlowNetwork& fn = fabric.network();
  EXPECT_THROW(fn.add_port(0.5), ConfigError);
  EXPECT_THROW(fn.add_port(5e-324), ConfigError);
  const PortId p = fn.add_port(100.0);
  EXPECT_THROW(fn.set_capacity(p, 0.99), ConfigError);
  EXPECT_THROW(fn.set_capacity(p, 1e-200), ConfigError);
  EXPECT_EQ(fn.capacity(p), 100.0);
  const HostId h = fabric.add_host(100.0);
  EXPECT_THROW(fabric.set_host_rate_factor(h, 0.005), ConfigError);
  EXPECT_EQ(fn.capacity(fabric.tx_port(h)), 100.0);
  fabric.set_host_rate_factor(h, 0.01);  // 1 B/s is allowed
  EXPECT_EQ(fn.capacity(fabric.tx_port(h)), 1.0);
}

// The anti-starvation floor: squeezed to 1 B/s, a port still gives each
// of its three flows 1 B/s, so they keep moving and all finish.
TEST(FlowNetwork, OneBytePerSecondSqueezeStillCompletes) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  std::size_t done = 0;
  std::vector<FlowId> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(fn.start_flow({p}, 1000, [&] { ++done; }));
  sim.at(1.0, [&] { fn.set_capacity(p, 1.0); });
  sim.at(2.0, [&] {
    for (FlowId id : ids) EXPECT_EQ(fn.flow_rate(id), 1.0);
  });
  sim.at(3.0, [&] { fn.set_capacity(p, 200.0); });
  sim.run();
  EXPECT_EQ(done, 3u);
  EXPECT_EQ(fn.active_flows(), 0u);
  // 33 bytes each in the first second, 2 in the squeeze, then 66 B/s.
  EXPECT_NEAR(sim.now(), 3.0 + 965.0 / 66.0, 1e-9);
}

// A re-solve that leaves a flow's predicted finish bit for bit where it was
// pushes no second completion entry for it: X stays held to A's 8 B/s when
// Y joins it on B, so its due stays 128 s and only Y's entry is added.
TEST(FlowNetwork, CompletionHeapSkipsUnchangedDues) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId a = fn.add_port(8.0);
  const PortId b = fn.add_port(1024.0);
  double x_done = -1;
  const FlowId x = fn.start_flow({a, b}, 1024, [&] { x_done = sim.now(); });
  sim.run_until(0.0);
  EXPECT_EQ(fn.completion_entries(), 1u);
  sim.at(1.0, [&] { fn.start_flow({b}, 1024, [] {}); });
  sim.run_until(1.0);
  EXPECT_EQ(fn.flow_rate(x), 8.0);
  EXPECT_EQ(fn.completion_entries(), 2u);
  sim.run();
  EXPECT_NEAR(x_done, 128.0, 1e-9);
}

// The slot index, the low bits of a FlowId.
constexpr FlowId kSlotMask = (FlowId{1} << 24) - 1;

// A flow's slot is reused once the flow is cancelled or finishes. The old
// id stays dead whether the slot's next occupant waits out its head
// latency or transfers: it neither cancels that flow nor reads its rate.
TEST(FlowNetwork, StaleIdsNeverNameTheSlotsNextOccupant) {
  for (const bool finish : {false, true}) {
    for (const SimTime latency : {1.0, 0.0}) {
      SCOPED_TRACE(testing::Message() << (finish ? "finished" : "cancelled")
                                      << ", latency " << latency);
      simkit::Simulator sim;
      FlowNetwork fn(sim);
      const PortId p = fn.add_port(100.0);
      const FlowId old = fn.start_flow({p}, 1000, [] {});
      if (finish)
        sim.run();
      else
        ASSERT_TRUE(fn.cancel_flow(old));
      const FlowId next = fn.start_flow({p}, 1000, [] {}, latency);
      ASSERT_EQ(next & kSlotMask, old & kSlotMask);  // the same slot
      EXPECT_EQ(fn.flow_rate(old), 0.0);
      EXPECT_FALSE(fn.cancel_flow(old));
      EXPECT_EQ(fn.pending_flows() + fn.active_flows(), 1u);
      sim.run_until(sim.now() + latency);
      EXPECT_EQ(fn.flow_rate(next), 100.0);
      EXPECT_EQ(fn.flow_rate(old), 0.0);
      EXPECT_FALSE(fn.cancel_flow(old));
      EXPECT_TRUE(fn.cancel_flow(next));
    }
  }
}

// Ids ascend in start order even when a later flow reuses an earlier
// flow's slot; the solver's component order, the completion-heap ties and
// the order completions fire in all follow it.
TEST(FlowNetwork, IdsAscendInStartOrderAcrossSlotReuse) {
  simkit::Simulator sim;
  FlowNetwork fn(sim);
  const PortId p = fn.add_port(100.0);
  const FlowId a = fn.start_flow({p}, 1000, [] {});
  const FlowId b = fn.start_flow({p}, 1000, [] {});
  ASSERT_TRUE(fn.cancel_flow(a));
  const FlowId c = fn.start_flow({p}, 1000, [] {});
  ASSERT_EQ(c & kSlotMask, a & kSlotMask);
  EXPECT_LT(a, b);
  EXPECT_GT(c, b);
}

TEST(ChunkPolicy, CountsAndSizes) {
  ChunkPolicy off;  // default: disabled
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.chunk_count(1000), 1u);
  EXPECT_EQ(off.chunk_size(1000, 0), 1000u);

  ChunkPolicy p{.chunk_bytes = 300};
  EXPECT_EQ(p.chunk_count(1000), 4u);
  EXPECT_EQ(p.chunk_size(1000, 0), 300u);
  EXPECT_EQ(p.chunk_size(1000, 3), 100u);  // tail
  EXPECT_EQ(p.chunk_count(900), 3u);
  EXPECT_EQ(p.chunk_size(900, 2), 300u);   // exact fit: no short tail
  EXPECT_EQ(p.chunk_count(0), 1u);
}

TEST(ChunkedStream, DisabledPolicyMatchesPlainTransferTiming) {
  // chunk_bytes == 0 must be event-for-event identical to Fabric::transfer.
  double plain_done = -1, stream_done = -1;
  {
    simkit::Simulator sim;
    Fabric fabric(sim, 1e-3);
    const HostId a = fabric.add_host(100.0);
    const HostId b = fabric.add_host(100.0);
    fabric.transfer(a, b, 1000, [&] { plain_done = sim.now(); });
    sim.run();
  }
  {
    simkit::Simulator sim;
    Fabric fabric(sim, 1e-3);
    const HostId a = fabric.add_host(100.0);
    const HostId b = fabric.add_host(100.0);
    ChunkedStream::start(fabric, a, b, 1000, ChunkPolicy{}, {},
                         [&] { stream_done = sim.now(); });
    sim.run();
  }
  EXPECT_DOUBLE_EQ(plain_done, stream_done);
}

TEST(ChunkedStream, DeliversEveryChunkOnceAndInOrderCounts) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  ChunkPolicy p{.chunk_bytes = 250};
  std::vector<ChunkedStream::Chunk> chunks;
  bool done = false;
  auto stream = ChunkedStream::start(
      fabric, a, b, 1000, p,
      [&](const ChunkedStream::Chunk& c) { chunks.push_back(c); },
      [&] { done = true; });
  EXPECT_EQ(stream->chunks_total(), 4u);
  sim.run();
  ASSERT_EQ(chunks.size(), 4u);
  Bytes total = 0;
  for (const auto& c : chunks) total += c.bytes;
  EXPECT_EQ(total, 1000u);
  EXPECT_TRUE(chunks.back().last);
  EXPECT_TRUE(done);
  EXPECT_TRUE(stream->done());
  // Chunk accounting drained back to zero.
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("net.chunks"), 4.0);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("stream.inflight"), 0.0);
}

TEST(ChunkedStream, WindowBoundsInflightChunks) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  ChunkPolicy p{.chunk_bytes = 100};
  ChunkedStream::start(fabric, a, b, 1000, p, {});
  // Only the window is on the wire, not all 10 chunks.
  EXPECT_EQ(fabric.stream_chunks_inflight(), kPipelineDepth);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().peak("stream.inflight"),
                   static_cast<double>(kPipelineDepth));
  sim.run();
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
}

TEST(ChunkedStream, CancelMidStreamStopsDeliveryAndDrainsGauges) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  ChunkPolicy p{.chunk_bytes = 100};
  std::size_t delivered = 0;
  bool done = false;
  auto stream = ChunkedStream::start(
      fabric, a, b, 1000, p, [&](const ChunkedStream::Chunk&) { ++delivered; },
      [&] { done = true; });
  // The first window of four 100 B chunks shares 100 B/s and lands at
  // t = 4.0; the cancel catches the second window on the wire.
  sim.at(5.0, [&] { stream->cancel(); });
  sim.run();
  EXPECT_TRUE(stream->cancelled());
  EXPECT_FALSE(done);
  EXPECT_EQ(delivered, kPipelineDepth);
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("net.active_flows"), 0.0);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("stream.inflight"), 0.0);
}

}  // namespace
}  // namespace vdc::net
