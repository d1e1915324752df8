// Tests for the unreliable-fabric model: the LinkFaultInjector fault
// plane (drops, corruption, latency/jitter, partitions, degraded rate)
// and the reliable-delivery layer of ChunkedStream (CRC rejection,
// ACK/timeout retransmission with backoff, attempt budgets, deadlines).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "net/chunked_stream.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"

namespace vdc::net {
namespace {

TEST(LinkFaultInjector, DisabledUntilFirstFaultAndStickyAfterHeal) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  EXPECT_FALSE(fabric.faults_active());
  // Merely touching the plane does not enable it.
  fabric.faults();
  EXPECT_FALSE(fabric.faults_active());
  fabric.faults().set_host_fault(a, LinkFault{.drop = 0.5});
  EXPECT_TRUE(fabric.faults_active());
  fabric.faults().heal_all();
  // Sticky: once faults have existed, the judged path stays on.
  EXPECT_TRUE(fabric.faults_active());
  // ...but a healed plane delivers everything cleanly.
  for (int i = 0; i < 32; ++i) {
    const Judgement j = fabric.faults().judge(a, b);
    EXPECT_EQ(j.outcome, Delivery::kDelivered);
    EXPECT_DOUBLE_EQ(j.extra_latency, 0.0);
  }
}

TEST(LinkFaultInjector, EffectiveComposesNicAndLinkFaults) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  auto& faults = fabric.faults();
  faults.set_host_fault(a, LinkFault{.drop = 0.5, .extra_latency = 1.0,
                                     .jitter = 0.25});
  faults.set_host_fault(b, LinkFault{.drop = 0.5, .extra_latency = 2.0,
                                     .jitter = 0.75});
  faults.set_link_fault(a, b, LinkFault{.corrupt = 0.5});
  const LinkFault eff = faults.effective(a, b);
  // Independent composition: p = 1 - (1-.5)(1-.5).
  EXPECT_DOUBLE_EQ(eff.drop, 0.75);
  EXPECT_DOUBLE_EQ(eff.corrupt, 0.5);
  EXPECT_DOUBLE_EQ(eff.extra_latency, 3.0);  // latencies add
  EXPECT_DOUBLE_EQ(eff.jitter, 0.75);        // jitter takes the max
  // The directed override is asymmetric: b -> a never corrupts.
  EXPECT_DOUBLE_EQ(faults.effective(b, a).corrupt, 0.0);
}

TEST(LinkFaultInjector, CertainDropAlwaysDropsAndCounts) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_link_fault(a, b, LinkFault{.drop = 1.0});
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(fabric.faults().judge(a, b).outcome, Delivery::kDropped);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("net.drops"), 16.0);
  // The reverse direction is clean.
  EXPECT_EQ(fabric.faults().judge(b, a).outcome, Delivery::kDelivered);
}

TEST(LinkFaultInjector, PartitionCutsBothDirectionsUntilHealed) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  const HostId c = fabric.add_host(100.0);
  auto& faults = fabric.faults();
  faults.set_partition_group(a, 1);
  EXPECT_TRUE(faults.partitioned(a, b));
  EXPECT_TRUE(faults.partitioned(b, a));
  EXPECT_FALSE(faults.partitioned(b, c));
  EXPECT_EQ(faults.judge(a, b).outcome, Delivery::kDropped);
  EXPECT_EQ(faults.judge(b, a).outcome, Delivery::kDropped);
  // Same group on the far side reconnects them.
  faults.set_partition_group(b, 1);
  EXPECT_FALSE(faults.partitioned(a, b));
  EXPECT_TRUE(faults.partitioned(a, c));
  faults.heal(a);
  faults.heal(b);
  EXPECT_FALSE(faults.partitioned(a, c));
  EXPECT_EQ(faults.judge(a, c).outcome, Delivery::kDelivered);
}

TEST(LinkFaultInjector, CrcCatchesEverySingleBitFlip) {
  std::vector<std::byte> frame(24);
  for (std::size_t i = 0; i < frame.size(); ++i)
    frame[i] = static_cast<std::byte>(i * 37 + 5);
  const std::uint32_t crc = vdc::crc32(frame);
  for (std::uint64_t bit = 0; bit < frame.size() * 8; ++bit)
    EXPECT_TRUE(crc_catches_flip(frame, crc, bit)) << "bit " << bit;
  // Bits beyond the frame reduce modulo its length.
  EXPECT_TRUE(crc_catches_flip(frame, crc, frame.size() * 8 + 3));
}

TEST(Fabric, JudgedTransferWithoutFaultsMatchesPlainTransfer) {
  double plain_done = -1, judged_done = -1;
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
    fabric.transfer_judged(a, b, 1000, [&](const Judgement& j) {
      EXPECT_EQ(j.outcome, Delivery::kDelivered);
      judged_done = sim.now();
    });
    sim.run();
  }
  EXPECT_DOUBLE_EQ(plain_done, judged_done);
}

TEST(Fabric, ExtraLatencyDelaysJudgedDelivery) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_host_fault(a, LinkFault{.extra_latency = 1.5});
  double done = -1;
  fabric.transfer_judged(a, b, 100, [&](const Judgement&) {
    done = sim.now();
  });
  sim.run();
  // 100 B at 100 B/s = 1 s, plus 1.5 s of injected head latency.
  EXPECT_NEAR(done, 2.5, 1e-9);
}

TEST(Fabric, JitterAddsBoundedLatency) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_host_fault(a, LinkFault{.jitter = 0.5});
  std::vector<double> done;
  for (int i = 0; i < 8; ++i) {
    sim.at(10.0 * i, [&] {
      fabric.transfer_judged(a, b, 100, [&](const Judgement&) {
        done.push_back(sim.now() - 10.0 * (done.size()));
      });
    });
  }
  sim.run();
  ASSERT_EQ(done.size(), 8u);
  bool any_jitter = false;
  for (const double d : done) {
    EXPECT_GE(d, 1.0 - 1e-9);
    EXPECT_LT(d, 1.5);
    if (d > 1.0 + 1e-9) any_jitter = true;
  }
  EXPECT_TRUE(any_jitter);
}

TEST(Fabric, HostRateFactorDegradesThroughput) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.set_host_rate_factor(a, 0.5);
  double done = -1;
  fabric.transfer(a, b, 100, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 2.0, 1e-9);  // half the NIC, twice the time
  fabric.set_host_rate_factor(a, 1.0);
  done = -1;
  fabric.transfer(a, b, 100, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done - 2.0, 1.0, 1e-9);
}

TEST(ChunkedStream, LossyLinkRetransmitsUntilComplete) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_link_fault(a, b, LinkFault{.drop = 0.3});
  ChunkPolicy p{.chunk_bytes = 100};
  std::size_t delivered = 0;
  bool done = false;
  auto stream = ChunkedStream::start(
      fabric, a, b, 1000, p,
      [&](const ChunkedStream::Chunk&) { ++delivered; }, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(stream->failed());
  EXPECT_EQ(delivered, 10u);
  EXPECT_GT(sim.telemetry().metrics().value("net.retransmits"), 0.0);
  EXPECT_GT(sim.telemetry().metrics().value("net.drops"), 0.0);
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
}

TEST(ChunkedStream, CorruptedChunksAreCrcRejectedAndRetransmitted) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_link_fault(a, b, LinkFault{.corrupt = 0.3});
  ChunkPolicy p{.chunk_bytes = 100};
  std::size_t delivered = 0;
  bool done = false;
  ChunkedStream::start(fabric, a, b, 1000, p,
                       [&](const ChunkedStream::Chunk&) { ++delivered; },
                       [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 10u);
  const double corrupt = sim.telemetry().metrics().value("net.corrupt_frames");
  EXPECT_GT(corrupt, 0.0);
  // Every CRC-rejected frame forces a retransmission.
  EXPECT_GE(sim.telemetry().metrics().value("net.retransmits"), corrupt);
}

TEST(ChunkedStream, AttemptBudgetExhaustionFailsTheStream) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  // Fast NICs: a dropped attempt costs milliseconds, so the backoff
  // schedule (0.05 s doubling, 6.35 s in all) spends the attempt budget
  // long before the transfer deadline.
  const HostId a = fabric.add_host(1e5);
  const HostId b = fabric.add_host(1e5);
  fabric.faults().set_link_fault(a, b, LinkFault{.drop = 1.0});
  ChunkPolicy p{.chunk_bytes = 100};
  std::size_t delivered = 0;
  bool done = false;
  int failures = 0;
  std::string reason;
  auto stream = ChunkedStream::start(
      fabric, a, b, 1000, p,
      [&](const ChunkedStream::Chunk&) { ++delivered; }, [&] { done = true; });
  stream->set_on_fail([&](const std::string& why) {
    ++failures;
    reason = why;
  });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(delivered, 0u);
  // Exactly once, with kPipelineDepth chunks in flight.
  EXPECT_EQ(failures, 1);
  EXPECT_TRUE(stream->failed());
  EXPECT_NE(reason.find(std::to_string(kMaxAttempts) + " attempts"),
            std::string::npos)
      << reason;
  EXPECT_LT(sim.now(), kTransferDeadline);
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
  EXPECT_DOUBLE_EQ(sim.telemetry().metrics().value("stream.inflight"), 0.0);
}

TEST(ChunkedStream, TransferDeadlineFailsTheStream) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  // Slow partial progress: 100 chunks at 4 s per window of four, one
  // frame in five dropped. No chunk comes near its attempt budget; the
  // first retransmission past the deadline ends the stream.
  const HostId a = fabric.add_host(100.0);
  const HostId b = fabric.add_host(100.0);
  fabric.faults().set_link_fault(a, b, LinkFault{.drop = 0.2});
  ChunkPolicy p{.chunk_bytes = 100};
  std::size_t delivered = 0;
  bool done = false;
  int failures = 0;
  std::string reason;
  auto stream = ChunkedStream::start(
      fabric, a, b, 10'000, p,
      [&](const ChunkedStream::Chunk&) { ++delivered; }, [&] { done = true; });
  stream->set_on_fail([&](const std::string& why) {
    ++failures;
    reason = why;
  });
  sim.run();
  EXPECT_FALSE(done);
  EXPECT_EQ(failures, 1);
  EXPECT_TRUE(stream->failed());
  EXPECT_NE(reason.find("deadline"), std::string::npos) << reason;
  EXPECT_GT(delivered, 0u);
  EXPECT_LT(delivered, stream->chunks_total());
  // The stream gave up within a few windows of the deadline instead of
  // running on for the whole 400 s transfer.
  EXPECT_GE(sim.now(), kTransferDeadline);
  EXPECT_LE(sim.now(), kTransferDeadline + 20.0);
  EXPECT_EQ(fabric.stream_chunks_inflight(), 0u);
}

TEST(ChunkedStream, HealedLinkRecoversInFlightStream) {
  simkit::Simulator sim;
  Fabric fabric(sim, 0.0);
  const HostId a = fabric.add_host(1e5);
  const HostId b = fabric.add_host(1e5);
  fabric.faults().set_partition_group(b, 1);
  ChunkPolicy p{.chunk_bytes = 100};
  bool done = false;
  auto stream = ChunkedStream::start(fabric, a, b, 400, p, {},
                                     [&] { done = true; });
  stream->set_on_fail([&](const std::string&) { ADD_FAILURE(); });
  // Each chunk's seventh attempt leaves at ~3.15 s, inside its budget of
  // kMaxAttempts; the partition heals before it.
  sim.at(3.0, [&] { fabric.faults().heal(b); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(stream->failed());
  EXPECT_GT(sim.telemetry().metrics().value("net.retransmits"), 0.0);
}

}  // namespace
}  // namespace vdc::net
