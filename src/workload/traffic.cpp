#include "workload/traffic.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::workload {

TrafficPlane::TrafficPlane(simkit::Simulator& sim,
                           cluster::ClusterManager& cluster,
                           TrafficConfig config, Rng rng)
    : sim_(sim),
      cluster_(cluster),
      config_(config),
      rng_(rng) {
  VDC_REQUIRE(config_.streams_per_guest > 0, "traffic needs >= 1 stream");
  VDC_REQUIRE(config_.clients_per_guest > 0, "traffic needs >= 1 client");
  VDC_REQUIRE(config_.client_timeout > 0.0, "client_timeout must be > 0");
}

telemetry::MetricsRegistry& TrafficPlane::metrics() {
  return sim_.telemetry().metrics();
}

void TrafficPlane::start() {
  VDC_REQUIRE(!started_, "TrafficPlane::start called twice");
  started_ = true;
  client_host_ = fabric().add_host(kClientNic);

  const auto vms = cluster_.all_vms();
  for (vm::VmId guest : vms) {
    const std::uint64_t per =
        std::max<std::uint64_t>(1, config_.clients_per_guest /
                                       config_.streams_per_guest);
    if (config_.mode == TrafficConfig::Mode::kClosed) {
      for (std::uint32_t s = 0; s < config_.streams_per_guest; ++s) {
        streams_.push_back(Stream{guest, per});
        const auto idx = static_cast<std::uint32_t>(streams_.size() - 1);
        // Stagger stream starts with one think gap each so a cold start
        // is not a synchronized burst.
        sim_.after(think_gap(streams_.back()), [this, guest, idx] {
          if (!stopped_) new_request(guest, idx);
        });
      }
    } else {
      schedule_arrival(guest);
    }
  }
}

SimTime TrafficPlane::think_gap(const Stream& stream) {
  if (config_.think_time <= 0.0) return 0.0;
  const double rate =
      static_cast<double>(stream.clients) / config_.think_time;
  return rng_.exponential(rate);
}

void TrafficPlane::schedule_arrival(vm::VmId guest) {
  const double rate =
      static_cast<double>(config_.clients_per_guest) * config_.request_rate;
  if (rate <= 0.0) return;
  sim_.after(rng_.exponential(rate), [this, guest] {
    if (stopped_) return;
    if (requests_.size() < config_.open_outstanding_limit)
      new_request(guest, 0);
    else
      metrics().add("serve.shed", 1.0, {{"where", "arrival"}});
    schedule_arrival(guest);
  });
}

vm::GuestService* TrafficPlane::service_for(vm::VmId guest) {
  auto it = services_.find(guest);
  if (it != services_.end()) return it->second.get();
  auto service =
      std::make_unique<vm::GuestService>(sim_, config_.service);
  return services_.emplace(guest, std::move(service)).first->second.get();
}

void TrafficPlane::new_request(vm::VmId guest, std::uint32_t stream) {
  const std::uint64_t id = ++next_request_id_;
  RequestState rs;
  rs.guest = guest;
  rs.stream = stream;
  rs.first_send = sim_.now();
  requests_.emplace(id, rs);
  send_request(id);
}

void TrafficPlane::send_request(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  RequestState& rs = it->second;
  ++rs.attempts;
  series_.requests.add(1.0);
  if (rs.attempts > 1) series_.retries.add(1.0);
  const SimTime at = sim_.now() + config_.client_timeout;
  VDC_ASSERT(deadlines_.empty() || deadlines_.back().at <= at);
  deadlines_.push_back(Deadline{at, id, rs.attempts});
  arm_deadline();

  const auto node = cluster_.locate(rs.guest);
  if (!node.has_value()) {
    // The guest is lost (mid-failover): the send blackholes and the
    // timeout drives the retry; recovery re-places the VM under the same
    // name and a later attempt reaches it (the ARP-update effect).
    series_.unreachable.add(1.0);
    return;
  }
  fabric().transfer_judged(client_host_, cluster_.node(*node).host(),
                           kRequestBytes,
                           [this, id](const net::Judgement& verdict) {
                             if (verdict.outcome != net::Delivery::kDelivered)
                               return;  // lost; the timeout retries
                             on_request_arrived(id);
                           });
}

void TrafficPlane::on_request_arrived(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;  // already satisfied and retired
  if (recovering_) {
    // Guests are rolled back / down: serving anything now could expose
    // state the recovery is about to discard.
    series_.in_recovery.add(1.0);
    return;
  }
  const vm::VmId guest = it->second.guest;
  if (!cluster_.locate(guest).has_value()) return;
  if (!service_for(guest)->submit(id, [this](std::uint64_t token) {
        on_served(token);
      }))
    metrics().add("serve.shed", 1.0, {{"where", "service"}});
}

void TrafficPlane::on_served(std::uint64_t id) {
  auto it = requests_.find(id);
  if (it == requests_.end()) return;  // satisfied by an earlier attempt
  HeldEgress egress;
  egress.serial = ++next_serial_;
  egress.request = id;
  egress.guest = it->second.guest;
  egress.cut = buffer_.next_cut();
  egress.bytes = config_.response_bytes;
  egress.generated_at = sim_.now();
  buffer_.hold(egress);
  series_.generated.add(1.0);
  update_held_gauge();
}

void TrafficPlane::arm_deadline() {
  if (stopped_ || deadline_armed_ || deadlines_.empty()) return;
  deadline_armed_ = true;
  sim_.at(deadlines_.front().at, [this] { on_deadline(); });
}

void TrafficPlane::on_deadline() {
  // One event stands for every send's timer, so a delivery cancels
  // nothing and the event skips deadlines that died after it was armed.
  // Only an exact tie between a deadline and another event's time could
  // reorder the two: a per-send timer was queued at its send, this event
  // when armed. The resends' pushes do not arm it; it re-arms once below.
  const SimTime now = sim_.now();
  while (!stopped_ && !deadlines_.empty()) {
    const Deadline d = deadlines_.front();
    const auto it = requests_.find(d.request);
    const bool live = it != requests_.end() && it->second.attempts == d.attempt;
    if (live && d.at > now) break;
    deadlines_.pop_front();
    if (!live) continue;
    series_.timeouts.add(1.0);
    send_request(d.request);
  }
  deadline_armed_ = false;
  arm_deadline();
}

void TrafficPlane::on_epoch_commit(Cut cut) {
  release(buffer_.commit(cut));
  update_held_gauge();
  // New epoch window for the back-pressure peak: start it at whatever is
  // still held (egress tagged past the committed cut).
  held_window_peak_ = buffer_.held_bytes();
}

void TrafficPlane::release(std::vector<HeldEgress> released) {
  if (released.empty()) return;
  // One batched flow per guest per commit: with millions of aggregated
  // clients the fan-in cost is per-guest, not per-response.
  std::map<vm::VmId, std::vector<HeldEgress>> by_guest;
  for (auto& egress : released)
    by_guest[egress.guest].push_back(egress);
  for (auto& [guest, batch] : by_guest) {
    const auto node = cluster_.locate(guest);
    if (!node.has_value()) {
      // Released (committed) egress for a guest that vanished between
      // commit and release: the responses are lost on the floor; clients
      // retry and get re-served after recovery.
      metrics().add("serve.release_drops", 1.0,
                    {{"reason", "guest_lost"}});
      continue;
    }
    Bytes total = 0;
    for (const auto& egress : batch) total += egress.bytes;
    fabric().transfer_judged(
        cluster_.node(*node).host(), client_host_, total,
        [this, batch = std::move(batch)](const net::Judgement& verdict) {
          if (verdict.outcome != net::Delivery::kDelivered) {
            metrics().add("serve.response_wire_drops",
                          static_cast<double>(batch.size()));
            return;  // clients time out and retry
          }
          for (const auto& egress : batch) deliver(egress);
        });
  }
}

void TrafficPlane::deliver(const HeldEgress& egress) {
  // The output-commit invariant, enforced at the hatch: nothing reaches a
  // client unless its cut is committed.
  VDC_ASSERT(egress.cut <= buffer_.committed());
  auto it = requests_.find(egress.request);
  if (it == requests_.end()) {
    // A retry was served twice; the first copy already answered.
    series_.duplicates.add(1.0);
    return;
  }
  const RequestState rs = it->second;
  requests_.erase(it);

  const SimTime latency = sim_.now() - rs.first_send;
  series_.delivered.add(1.0);
  if (sim_.now() >= config_.warmup) series_.latency.observe(latency);
  if (downtime_open_ && !recovering_) {
    // First response a client actually sees after the failover: the
    // visible outage ran from the failure to right now.
    downtime_open_ = false;
    metrics().add("serve.downtime_visible_s", sim_.now() - failover_start_);
  }
  if (config_.record_deliveries) {
    DeliveryRecord record;
    record.request = egress.request;
    record.guest = egress.guest;
    record.cut = egress.cut;
    record.committed_at_delivery = buffer_.committed();
    record.first_send = rs.first_send;
    record.delivered_at = sim_.now();
    record.attempts = rs.attempts;
    deliveries_.push_back(record);
  }

  if (config_.mode == TrafficConfig::Mode::kClosed) {
    const Stream& stream = streams_.at(rs.stream);
    sim_.after(think_gap(stream), [this, guest = stream.guest,
                                   idx = rs.stream] {
      if (!stopped_) new_request(guest, idx);
    });
  }
}

void TrafficPlane::on_epoch_abort() {
  drop_held(buffer_.abort(), "abort");
}

void TrafficPlane::on_failover_begin() {
  if (recovering_) return;
  recovering_ = true;
  if (!downtime_open_) {
    downtime_open_ = true;
    failover_start_ = sim_.now();
  }
  // Whole-cluster rollback to the committed cut: uncommitted egress AND
  // every in-service request reflect state that is about to be discarded.
  drop_held(buffer_.drop_all(), "failover");
  for (auto& [guest, service] : services_) service->fail();
}

void TrafficPlane::on_node_failure(const std::vector<vm::VmId>& lost) {
  for (vm::VmId guest : lost) services_.erase(guest);
}

void TrafficPlane::on_failover_end() { recovering_ = false; }

void TrafficPlane::on_restart() {
  drop_held(buffer_.reset(), "restart");
}

void TrafficPlane::drop_held(std::vector<HeldEgress> dropped,
                             const char* cause) {
  if (!dropped.empty())
    metrics().add("serve.dropped", static_cast<double>(dropped.size()),
                  {{"cause", cause}});
  update_held_gauge();
}

void TrafficPlane::update_held_gauge() {
  series_.held_bytes.set(static_cast<double>(buffer_.held_bytes()));
  held_window_peak_ = std::max(held_window_peak_, buffer_.held_bytes());
}

void TrafficPlane::stop() {
  stopped_ = true;
  auto& m = metrics();
  const double elapsed = sim_.now();
  m.set("serve.throughput", elapsed > 0.0
                                ? m.value("serve.delivered") / elapsed
                                : 0.0);
  // The latency range's out-of-range counts ride the sink export as
  // counters, taken from the samples themselves.
  double underflow = 0.0, overflow = 0.0;
  if (const auto* latency = m.find("serve.latency")) {
    for (double x : latency->samples.values()) {
      if (x < 0.0) underflow += 1.0;
      if (x >= kLatencyHistHigh) overflow += 1.0;
    }
  }
  m.add("serve.latency_hist.underflow", underflow);
  m.add("serve.latency_hist.overflow", overflow);
  update_held_gauge();
}

TrafficPlane::Summary TrafficPlane::summary() const {
  const auto& m = sim_.telemetry().metrics();
  const auto count = [&m](std::string_view name,
                          const telemetry::Labels& labels = {}) {
    return static_cast<std::uint64_t>(m.value(name, labels));
  };
  Summary s;
  s.requests = count("serve.requests");
  s.delivered = count("serve.delivered");
  s.retries = count("serve.retries");
  s.timeouts = count("serve.timeouts");
  s.duplicates = count("serve.duplicates");
  s.dropped_abort = count("serve.dropped", {{"cause", "abort"}});
  s.dropped_failover = count("serve.dropped", {{"cause", "failover"}}) +
                       count("serve.dropped", {{"cause", "restart"}});
  if (const auto* latency = m.find("serve.latency")) {
    s.latency_p50 = latency->samples.percentile(50.0);
    s.latency_p99 = latency->samples.percentile(99.0);
    s.latency_p999 = latency->samples.percentile(99.9);
    s.latency_mean = latency->samples.mean();
  }
  s.throughput = sim_.now() > 0.0
                     ? static_cast<double>(s.delivered) / sim_.now()
                     : 0.0;
  s.downtime_visible = m.value("serve.downtime_visible_s");
  s.held_bytes_peak = static_cast<Bytes>(m.peak("serve.output_held_bytes"));
  return s;
}

}  // namespace vdc::workload
