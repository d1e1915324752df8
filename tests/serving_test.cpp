// Serving plane: output-commit semantics (nothing reaches a client before
// its epoch commits, aborts drop buffered egress), guest service queueing,
// and the stream-isolation invariant — enabling traffic leaves the fault
// schedule and the epoch wire bytes bit-identical, because the plane runs
// on its own Rng stream and never dirties guest memory.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/runtime.hpp"
#include "vm/service.hpp"
#include "workload/output_commit.hpp"
#include "workload/traffic.hpp"

namespace vdc::workload {
namespace {

// --- OutputCommitBuffer unit semantics -------------------------------------

HeldEgress egress_for(Cut cut, std::uint64_t serial, Bytes bytes = 100) {
  HeldEgress e;
  e.serial = serial;
  e.request = serial;
  e.guest = 1;
  e.cut = cut;
  e.bytes = bytes;
  return e;
}

TEST(OutputCommitBuffer, ReleasesOnlyAtCommit) {
  OutputCommitBuffer buf;
  EXPECT_EQ(buf.next_cut(), 1u);
  buf.hold(egress_for(1, 1));
  buf.hold(egress_for(1, 2));
  EXPECT_EQ(buf.held_count(), 2u);
  EXPECT_EQ(buf.held_bytes(), 200u);
  EXPECT_EQ(buf.committed(), 0u);

  const auto released = buf.commit(1);
  ASSERT_EQ(released.size(), 2u);
  EXPECT_EQ(released[0].serial, 1u);  // generation order
  EXPECT_EQ(released[1].serial, 2u);
  EXPECT_EQ(buf.held_count(), 0u);
  EXPECT_EQ(buf.held_bytes(), 0u);
  EXPECT_EQ(buf.committed(), 1u);
  EXPECT_EQ(buf.next_cut(), 2u);
}

TEST(OutputCommitBuffer, AbortDropsHeldAndKeepsCutIndex) {
  OutputCommitBuffer buf;
  buf.hold(egress_for(1, 1));
  const auto dropped = buf.abort();
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(buf.held_count(), 0u);
  // The epoch is retried under the same number.
  EXPECT_EQ(buf.next_cut(), 1u);
  EXPECT_EQ(buf.committed(), 0u);
  // The retried epoch serves fresh responses and commits them.
  buf.hold(egress_for(1, 2));
  const auto released = buf.commit(1);
  ASSERT_EQ(released.size(), 1u);
  EXPECT_EQ(released[0].serial, 2u);
}

TEST(OutputCommitBuffer, ResetRestartsEpochNumbering) {
  OutputCommitBuffer buf;
  buf.commit(1);
  buf.hold(egress_for(2, 1));
  const auto dropped = buf.reset();
  EXPECT_EQ(dropped.size(), 1u);
  EXPECT_EQ(buf.next_cut(), 1u);
  EXPECT_EQ(buf.committed(), 0u);
}

// --- GuestService ----------------------------------------------------------

TEST(GuestService, FifoWithBoundedConcurrency) {
  simkit::Simulator sim;
  vm::GuestService::Config cfg;
  cfg.concurrency = 2;
  cfg.service_time = 1.0;
  vm::GuestService svc(sim, cfg);

  std::vector<std::pair<std::uint64_t, SimTime>> done;
  for (std::uint64_t t = 1; t <= 4; ++t)
    EXPECT_TRUE(svc.submit(
        t, [&done, &sim](std::uint64_t token) {
          done.emplace_back(token, sim.now());
        }));
  EXPECT_EQ(svc.in_service(), 2u);
  EXPECT_EQ(svc.queued(), 2u);
  sim.run();
  // Two servers: tokens 1,2 at t=1; 3,4 at t=2, FIFO order.
  ASSERT_EQ(done.size(), 4u);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 1.0);
  EXPECT_DOUBLE_EQ(done[2].second, 2.0);
  EXPECT_DOUBLE_EQ(done[3].second, 2.0);
}

TEST(GuestService, FailDropsEverythingInFlight) {
  simkit::Simulator sim;
  vm::GuestService::Config cfg;
  cfg.concurrency = 1;
  cfg.service_time = 1.0;
  vm::GuestService svc(sim, cfg);
  int fired = 0;
  svc.submit(1, [&fired](std::uint64_t) { ++fired; });
  svc.submit(2, [&fired](std::uint64_t) { ++fired; });
  svc.fail();
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(svc.in_service(), 0u);
  EXPECT_EQ(svc.queued(), 0u);
}

TEST(GuestService, FailDropsDuplicateTokenInService) {
  // A client retry can put one request id into service beside its
  // original. The first copy's completion must retire only its own
  // entry, so fail() still cancels the second copy.
  simkit::Simulator sim;
  vm::GuestService::Config cfg;
  cfg.concurrency = 2;
  cfg.service_time = 1.0;
  vm::GuestService svc(sim, cfg);
  std::vector<SimTime> done;
  const auto record = [&done, &sim](std::uint64_t) {
    done.push_back(sim.now());
  };
  EXPECT_TRUE(svc.submit(7, record));
  sim.at(0.5, [&] { EXPECT_TRUE(svc.submit(7, record)); });
  sim.at(1.2, [&] {
    EXPECT_EQ(svc.in_service(), 1u);
    svc.fail();
  });
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_EQ(svc.in_service(), 0u);
}

TEST(GuestService, ShedsBeyondQueueLimit) {
  simkit::Simulator sim;
  vm::GuestService::Config cfg;
  cfg.concurrency = 1;
  cfg.queue_limit = 1;
  vm::GuestService svc(sim, cfg);
  EXPECT_TRUE(svc.submit(1, [](std::uint64_t) {}));
  EXPECT_TRUE(svc.submit(2, [](std::uint64_t) {}));
  EXPECT_FALSE(svc.submit(3, [](std::uint64_t) {}));
  EXPECT_EQ(svc.shed(), 1u);
}

// --- TrafficPlane driven standalone ----------------------------------------

struct PlaneHarness {
  simkit::Simulator sim;
  cluster::ClusterManager cluster{sim, Rng(7)};
  std::unique_ptr<TrafficPlane> plane;

  explicit PlaneHarness(TrafficConfig cfg, std::uint32_t nodes = 2,
                        std::uint32_t vms_per_node = 2) {
    for (std::uint32_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::uint32_t n = 0; n < nodes; ++n)
      for (std::uint32_t v = 0; v < vms_per_node; ++v)
        cluster.boot_vm(n, kib(4), 4, std::make_unique<vm::IdleWorkload>());
    plane = std::make_unique<TrafficPlane>(sim, cluster, cfg, Rng(99));
    plane->start();
  }
};

TrafficConfig quick_traffic() {
  TrafficConfig cfg;
  cfg.clients_per_guest = 100;
  cfg.streams_per_guest = 2;
  cfg.think_time = 10.0;  // aggregate gap 0.1 s per stream
  cfg.client_timeout = 5.0;
  cfg.record_deliveries = true;
  return cfg;
}

TEST(TrafficPlane, NoEgressReleasedBeforeCommit) {
  PlaneHarness h(quick_traffic());
  h.sim.run_until(3.0);
  const auto s = h.plane->summary();
  EXPECT_GT(s.requests, 0u);
  EXPECT_GT(h.plane->buffer().held_count(), 0u);
  EXPECT_EQ(s.delivered, 0u);  // nothing committed yet
  EXPECT_TRUE(h.plane->deliveries().empty());

  h.plane->on_epoch_commit(1);
  h.sim.run_until(6.0);
  const auto after = h.plane->summary();
  EXPECT_GT(after.delivered, 0u);
  for (const auto& d : h.plane->deliveries()) {
    EXPECT_LE(d.cut, d.committed_at_delivery);
    EXPECT_GE(d.delivered_at, 3.0);  // not before the commit
  }
}

TEST(TrafficPlane, AbortDropsBufferedEgressAndClientsRetry) {
  PlaneHarness h(quick_traffic());
  h.sim.run_until(3.0);
  ASSERT_GT(h.plane->buffer().held_count(), 0u);

  h.plane->on_epoch_abort();
  EXPECT_EQ(h.plane->buffer().held_count(), 0u);
  EXPECT_GT(h.plane->summary().dropped_abort, 0u);
  EXPECT_EQ(h.plane->summary().delivered, 0u);

  // Clients time out (5 s), retry, get re-served; the retried epoch
  // commits and the responses flow.
  h.sim.run_until(9.0);
  h.plane->on_epoch_commit(1);
  h.sim.run_until(12.0);
  const auto s = h.plane->summary();
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.retries, 0u);
  bool saw_retry_delivery = false;
  for (const auto& d : h.plane->deliveries()) {
    EXPECT_LE(d.cut, d.committed_at_delivery);
    if (d.attempts > 1) saw_retry_delivery = true;
  }
  EXPECT_TRUE(saw_retry_delivery);
}

TEST(TrafficPlane, FailoverDropsHeldEgressAndRecovers) {
  PlaneHarness h(quick_traffic());
  h.sim.run_until(3.0);
  ASSERT_GT(h.plane->buffer().held_count(), 0u);

  h.plane->on_failover_begin();
  EXPECT_EQ(h.plane->buffer().held_count(), 0u);
  EXPECT_GT(h.plane->summary().dropped_failover, 0u);
  // While recovering, arrivals are not served.
  h.sim.run_until(4.0);
  h.plane->on_epoch_commit(1);  // releasing an empty buffer is a no-op
  EXPECT_EQ(h.plane->summary().delivered, 0u);

  h.plane->on_failover_end();
  h.sim.run_until(12.0);
  h.plane->on_epoch_commit(2);
  h.sim.run_until(15.0);
  const auto s = h.plane->summary();
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.downtime_visible, 0.0);
}

TEST(TrafficPlane, OpenLoopGeneratesPoissonArrivals) {
  TrafficConfig cfg = quick_traffic();
  cfg.mode = TrafficConfig::Mode::kOpen;
  cfg.request_rate = 0.2;  // x100 clients = 20 req/s/guest
  PlaneHarness h(cfg);
  h.sim.run_until(2.0);
  h.plane->on_epoch_commit(1);
  h.sim.run_until(4.0);
  const auto s = h.plane->summary();
  EXPECT_GT(s.requests, 50u);
  EXPECT_GT(s.delivered, 0u);
}

}  // namespace
}  // namespace vdc::workload

// --- stream isolation: traffic on/off bit-identity -------------------------

namespace vdc::core {
namespace {

struct FaultTraceEntry {
  JobEvent::Kind kind;
  SimTime time;
  cluster::NodeId node;
  bool operator==(const FaultTraceEntry& o) const {
    return kind == o.kind && time == o.time && node == o.node;
  }
};

JobRunner::BackendFactory dvdc_backend(ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
    return std::make_unique<DvdcBackend>(sim, cluster, ProtocolConfig{},
                                         RecoveryConfig{},
                                         make_workload_factory(cc));
  };
}

struct TraceResult {
  std::vector<FaultTraceEntry> faults;
  RunResult run;
};

TraceResult run_traced(bool with_traffic) {
  JobConfig job;
  job.total_work = 60.0;
  job.interval = 20.0;
  job.seed = 1234;
  // Failures land in quiet windows, well clear of any commit point, so
  // wall-clock contention from serving flows cannot move a commit across
  // a failure time.
  failure::ScheduledFailure f1;
  f1.at = 35.0;
  f1.node = 1;
  failure::ScheduledFailure f2;
  f2.at = 50.0;
  f2.node = 2;
  job.failure_schedule = {f1, f2};
  if (with_traffic) {
    workload::TrafficConfig tc;
    tc.clients_per_guest = 50;
    tc.streams_per_guest = 2;
    tc.think_time = 5.0;
    tc.client_timeout = 2.0;
    job.traffic = tc;
  }

  TraceResult out;
  job.observer = [&out](const JobEvent& ev) {
    if (ev.kind == JobEvent::Kind::Failure ||
        ev.kind == JobEvent::Kind::Cascade)
      out.faults.push_back(FaultTraceEntry{ev.kind, ev.time, ev.node});
  };
  ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 32;
  cc.write_rate = 200.0;
  JobRunner runner(job, cc, dvdc_backend(cc));
  out.run = runner.run();
  EXPECT_TRUE(out.run.finished);
  return out;
}

TEST(ServingDeterminism, TrafficLeavesFaultScheduleAndWireBytesIdentical) {
  const TraceResult off = run_traced(false);
  const TraceResult on = run_traced(true);

  // The scripted failures fired at the same instants against the same
  // nodes...
  ASSERT_EQ(off.faults.size(), on.faults.size());
  for (std::size_t i = 0; i < off.faults.size(); ++i) {
    EXPECT_EQ(off.faults[i].kind, on.faults[i].kind) << "event " << i;
    EXPECT_DOUBLE_EQ(off.faults[i].time, on.faults[i].time) << "event " << i;
    EXPECT_EQ(off.faults[i].node, on.faults[i].node) << "event " << i;
  }
  EXPECT_GE(off.faults.size(), 2u);

  // ...and the checkpoint plane shipped bit-identical epochs: same count,
  // same bytes. The serving plane draws from its own Rng stream and never
  // dirties guest memory, so nothing it does can leak into the wire.
  EXPECT_EQ(off.run.epochs, on.run.epochs);
  EXPECT_EQ(off.run.bytes_shipped, on.run.bytes_shipped);
  EXPECT_EQ(off.run.failures, on.run.failures);
  EXPECT_EQ(off.run.job_restarts, on.run.job_restarts);
}

TEST(ServingRuntime, EndToEndJobServesClients) {
  JobConfig job;
  job.total_work = 30.0;
  job.interval = 5.0;
  job.seed = 77;
  workload::TrafficConfig tc;
  tc.clients_per_guest = 200;
  tc.streams_per_guest = 2;
  tc.think_time = 4.0;
  tc.client_timeout = 3.0;
  tc.record_deliveries = true;
  job.traffic = tc;

  ClusterConfig cc;
  cc.nodes = 3;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 32;
  cc.write_rate = 100.0;
  JobRunner runner(job, cc, dvdc_backend(cc));
  const RunResult r = runner.run();
  EXPECT_TRUE(r.finished);
  ASSERT_NE(runner.traffic(), nullptr);
  const auto s = runner.traffic()->summary();
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.latency_p50, 0.0);
  EXPECT_LE(s.latency_p50, s.latency_p99);
  EXPECT_LE(s.latency_p99, s.latency_p999);
  for (const auto& d : runner.traffic()->deliveries())
    EXPECT_LE(d.cut, d.committed_at_delivery);
  // The serve.* metric family reached the registry.
  const auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_GT(metrics.value("serve.delivered"), 0.0);
  EXPECT_GT(metrics.value("serve.requests"), 0.0);
  const auto* latency = metrics.find("serve.latency");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->samples.count(), 0u);
}

}  // namespace
}  // namespace vdc::core
