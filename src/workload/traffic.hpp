#pragma once
// The serving plane: deterministic request/response traffic driving VM
// guests, with Remus-style output commit at epoch granularity.
//
// Millions of simulated clients are aggregated into a bounded number of
// per-guest *streams* so the event count scales with configured streams,
// not with clients:
//
//  * closed loop — each stream cycles send -> wait for the response ->
//    think gap, where the gap is exponential with the *aggregate* rate of
//    the clients it stands in for (n clients with mean think time Z behave
//    like one stream thinking Z/n). At most streams_per_guest requests are
//    outstanding per guest.
//  * open loop — per-guest Poisson arrivals at clients_per_guest *
//    request_rate, independent of response progress (the tail-latency
//    regime: arrivals keep coming while egress is held).
//
// Requests cross the fabric as judged transfers (they ride the same fault
// plane as checkpoint traffic: drops, partitions and fenced hosts all
// apply), queue at the guest's GuestService, and the response enters the
// OutputCommitBuffer tagged with the next checkpoint cut. Commit releases
// a guest's responses as ONE batched flow back to the client edge (fan-in
// economy: one flow per guest per commit, not per response). Clients that
// wait past client_timeout resend; duplicate responses are deduplicated
// by request id at delivery. Resend deadlines wait in one FIFO behind one
// pending event, so an answered request cancels nothing (see
// on_deadline).
//
// Every random draw comes from the plane's own Rng stream, constructed
// independently of the job's fork chain — enabling or disabling traffic
// must leave the fault schedule and the epoch wire bytes bit-identical
// (asserted by ServingDeterminism tests). For the same reason serving
// never dirties guest memory (see vm::GuestService).
//
// Metrics (docs/OBSERVABILITY.md): serve.latency histogram (p50/p99/p999
// in sink exports), serve.requests / serve.delivered / serve.retries /
// serve.timeouts counters, serve.dropped.{abort,failover} counters,
// serve.output_held_bytes gauge, serve.downtime_visible_s counter and
// serve.throughput gauge.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cluster/manager.hpp"
#include "common/rng.hpp"
#include "vm/service.hpp"
#include "workload/output_commit.hpp"

namespace vdc::workload {

/// Client request size on the wire.
inline constexpr Bytes kRequestBytes = 512;
/// NIC rate of the client edge host (the fan-in aggregation point).
inline constexpr Rate kClientNic = gbit_per_s(40);
/// Salt mixed with the job seed for the plane's private Rng stream.
inline constexpr std::uint64_t kTrafficSalt = 0xC11E27;
/// Upper edge of the latency range: `serve.latency_hist.overflow` counts
/// the `serve.latency` samples at or above it (underflow: below 0).
inline constexpr double kLatencyHistHigh = 30.0;

struct TrafficConfig {
  enum class Mode { kClosed, kOpen };
  Mode mode = Mode::kClosed;

  /// Simulated clients aggregated per guest (may be millions).
  std::uint64_t clients_per_guest = 1000;
  /// Aggregation streams per guest (bounds outstanding work and events).
  std::uint32_t streams_per_guest = 8;
  /// Closed loop: mean per-client think time between response and next
  /// request (a stream standing in for n clients thinks think_time/n).
  SimTime think_time = 1.0;
  /// Open loop: per-client request rate (aggregate = clients * rate).
  double request_rate = 1.0;
  /// Open loop: once this many requests are outstanding across ALL guests
  /// (one global cap, not per guest), new arrivals are shed (guards
  /// event/memory blowup while egress is held).
  std::size_t open_outstanding_limit = 4096;

  Bytes response_bytes = kib(4);
  vm::GuestService::Config service{};

  /// Client resend timer: a request unanswered this long is retried.
  SimTime client_timeout = 1.0;

  /// Ignore latencies observed before this sim time (ramp-up).
  SimTime warmup = 0.0;
  /// Record per-delivery records for test assertions (memory-unbounded).
  bool record_deliveries = false;
};

/// One delivered response, for invariant checks in tests.
struct DeliveryRecord {
  std::uint64_t request = 0;
  vm::VmId guest = 0;
  Cut cut = 0;                    ///< cut that released it
  Cut committed_at_delivery = 0;  ///< commit watermark when delivered
  SimTime first_send = 0.0;
  SimTime delivered_at = 0.0;
  std::uint32_t attempts = 0;
};

class TrafficPlane {
 public:
  struct Summary {
    std::uint64_t requests = 0;   ///< sends, retries included
    std::uint64_t delivered = 0;  ///< distinct requests answered
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t dropped_abort = 0;     ///< egress dropped by epoch abort
    std::uint64_t dropped_failover = 0;  ///< egress dropped by rollback
    double latency_p50 = 0.0;
    double latency_p99 = 0.0;
    double latency_p999 = 0.0;
    double latency_mean = 0.0;
    double throughput = 0.0;  ///< delivered / elapsed sim time
    double downtime_visible = 0.0;  ///< total client-visible outage (s)
    Bytes held_bytes_peak = 0;
  };

  TrafficPlane(simkit::Simulator& sim, cluster::ClusterManager& cluster,
               TrafficConfig config, Rng rng);

  /// Create the client edge host and launch every stream. Call once,
  /// after all cluster nodes (and their hosts) exist.
  void start();

  /// Finalize derived metrics (throughput gauge, the latency range's
  /// underflow/overflow counters) and end the plane's timers: open-loop
  /// arrivals, closed-loop think gaps and client deadlines each fire at
  /// most once more, as a no-op, so the simulator drains. Safe to call
  /// once after the run's event loop ends.
  void stop();

  // --- runtime hooks (wired by core::JobRunner) --------------------------
  /// Cut `cut` committed: release held egress tagged <= cut.
  void on_epoch_commit(Cut cut);
  /// The in-flight epoch aborted on the wire: drop held egress.
  void on_epoch_abort();
  /// First failure of a recovery episode: the cluster will roll back to
  /// the committed cut, so all uncommitted egress is dropped and the
  /// client-visible downtime window opens. Idempotent within an episode.
  void on_failover_begin();
  /// These guests died (node kill / cascade): their queued and in-service
  /// requests vanish.
  void on_node_failure(const std::vector<vm::VmId>& lost);
  /// Recovery settled (or the restart window closed): serving resumes.
  /// Downtime stays open until the next actual delivery.
  void on_failover_end();
  /// Job restart: epoch numbering starts over from 1.
  void on_restart();

  // --- introspection -----------------------------------------------------
  /// Read from the metrics registry, where the plane records as it goes.
  Summary summary() const;
  const OutputCommitBuffer& buffer() const { return buffer_; }
  const std::vector<DeliveryRecord>& deliveries() const {
    return deliveries_;
  }
  bool recovering() const { return recovering_; }

  /// Peak held egress since the last epoch commit (the current epoch
  /// window). The runtime samples this just before on_epoch_commit —
  /// which resets the window — and feeds it into the adaptive interval
  /// policy as back-pressure (EpochStats::held_egress_peak).
  Bytes held_peak_window() const { return held_window_peak_; }

 private:
  struct Stream {
    vm::VmId guest = 0;
    std::uint64_t clients = 0;  ///< clients this stream aggregates
  };
  /// The series written once per request or response.
  struct Series {
    telemetry::MetricsRegistry& m;
    telemetry::MetricHandle requests{m, "serve.requests"};
    telemetry::MetricHandle retries{m, "serve.retries"};
    telemetry::MetricHandle unreachable{m, "serve.unreachable"};
    telemetry::MetricHandle in_recovery{m, "serve.dropped_in_recovery"};
    telemetry::MetricHandle generated{m, "serve.responses_generated"};
    telemetry::MetricHandle timeouts{m, "serve.timeouts"};
    telemetry::MetricHandle duplicates{m, "serve.duplicates"};
    telemetry::MetricHandle delivered{m, "serve.delivered"};
    telemetry::MetricHandle latency{m, "serve.latency"};
    telemetry::MetricHandle held_bytes{m, "serve.output_held_bytes"};
  };
  struct RequestState {
    vm::VmId guest = 0;
    std::uint32_t stream = 0;  ///< index into streams_ (closed loop)
    SimTime first_send = 0.0;
    std::uint32_t attempts = 0;
  };
  /// A send's resend deadline. It is live while its request is still
  /// outstanding at the same attempt count.
  struct Deadline {
    SimTime at = 0.0;
    std::uint64_t request = 0;
    std::uint32_t attempt = 0;
  };

  net::Fabric& fabric() { return cluster_.fabric(); }
  telemetry::MetricsRegistry& metrics();
  vm::GuestService* service_for(vm::VmId guest);
  SimTime think_gap(const Stream& stream);

  void new_request(vm::VmId guest, std::uint32_t stream);
  void send_request(std::uint64_t id);
  void on_request_arrived(std::uint64_t id);
  void on_served(std::uint64_t id);
  /// Resend every live request due now, then re-arm at the next one.
  void on_deadline();
  /// Arm the deadline event at the FIFO's front unless it is armed.
  void arm_deadline();
  void schedule_arrival(vm::VmId guest);
  void deliver(const HeldEgress& egress);
  void release(std::vector<HeldEgress> released);
  void drop_held(std::vector<HeldEgress> dropped, const char* cause);
  void update_held_gauge();

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  TrafficConfig config_;
  Rng rng_;
  Series series_{sim_.telemetry().metrics()};

  net::HostId client_host_ = 0;
  bool started_ = false;
  bool stopped_ = false;  // stop() ran: timers end at their next firing
  OutputCommitBuffer buffer_;
  std::map<vm::VmId, std::unique_ptr<vm::GuestService>> services_;
  std::vector<Stream> streams_;
  std::unordered_map<std::uint64_t, RequestState> requests_;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t next_serial_ = 0;
  /// Every send's deadline in send order, which is deadline order:
  /// client_timeout is one constant and sim time never goes back.
  std::deque<Deadline> deadlines_;
  /// One event pending at a deadline no later than the FIFO's first live
  /// one, while the FIFO is not empty (and while on_deadline runs).
  bool deadline_armed_ = false;

  bool recovering_ = false;
  bool downtime_open_ = false;
  SimTime failover_start_ = 0.0;

  Bytes held_window_peak_ = 0;  // peak since last commit (see accessor)
  std::vector<DeliveryRecord> deliveries_;
};

}  // namespace vdc::workload
