#pragma once
// Host-level convenience layer over FlowNetwork.
//
// A Fabric is a set of hosts connected through a non-blocking switch: each
// host contributes a full-duplex NIC modelled as a TX port and an RX port.
// Additional shared ports (a NAS front-end link, a disk array) can be
// created and spliced into transfer paths, which is how the single-NAS
// bottleneck of baseline disk-full checkpointing is expressed.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fault.hpp"
#include "net/flow_network.hpp"

namespace vdc::net {

using RackId = std::uint32_t;

class Fabric {
 public:
  /// `link_latency` is the one-way propagation/setup latency applied to
  /// every transfer (the paper's LAN context: tens of microseconds).
  Fabric(simkit::Simulator& sim, SimTime link_latency = 50e-6)
      : network_(sim),
        telemetry_(sim.telemetry()),
        link_latency_(link_latency) {
    // Keep the `net.active_flows` gauge honest: re-publish it on every
    // flow start, completion and cancel (latency-stage flows count too),
    // so it returns to 0 at quiescence and its peak is the true
    // concurrency high-water mark.
    network_.set_count_hook([this] {
      active_flows_.set(static_cast<double>(network_.active_flows() +
                                            network_.pending_flows()));
    });
  }

  /// Add a host with a full-duplex NIC of the given speed. `rack` places
  /// the host behind that rack's uplink (see set_rack_uplink); hosts in
  /// the same rack talk switch-locally.
  HostId add_host(Rate nic_rate, RackId rack = 0);

  /// Add a standalone shared port (e.g. the NAS uplink).
  PortId add_shared_port(Rate rate);

  /// Give `rack` an oversubscribed full-duplex uplink to the core switch:
  /// all traffic between different racks traverses the source rack's
  /// uplink and the destination rack's downlink. Racks without an uplink
  /// reach the core unconstrained (the default flat-switch model).
  void set_rack_uplink(RackId rack, Rate rate);

  /// Host-to-host transfer through the switch.
  FlowId transfer(HostId src, HostId dst, Bytes bytes,
                  FlowNetwork::Callback on_complete);

  /// Host-to-shared-port transfer (e.g. checkpoint stream to the NAS).
  /// The path is src TX -> shared port (the shared port is the sink).
  FlowId transfer_to_port(HostId src, PortId sink, Bytes bytes,
                          FlowNetwork::Callback on_complete);

  /// Shared-port-to-host transfer (e.g. restart image read from the NAS).
  FlowId transfer_from_port(PortId source, HostId dst, Bytes bytes,
                            FlowNetwork::Callback on_complete);

  /// Judged host-to-host transfer for the reliable-delivery layer. With
  /// the fault plane disabled (or never created) this is exactly
  /// transfer(): same flow, same path, same latency, and the callback
  /// fires with a default (kDelivered) verdict at completion. With faults
  /// active the verdict is drawn at launch and handed to the callback at
  /// completion — a dropped or corrupted frame still burns its wire time,
  /// which is what the sender's retransmission timer has to ride out.
  using JudgedCallback = std::function<void(const Judgement&)>;
  FlowId transfer_judged(HostId src, HostId dst, Bytes bytes,
                         JudgedCallback on_complete);

  /// Lazily-created fault plane (it owns a private deterministic Rng, so
  /// merely creating it perturbs nothing). It reports enabled() only once
  /// a fault has been configured; until then the judged path stays inert.
  LinkFaultInjector& faults();
  bool faults_active() const { return faults_ && faults_->enabled(); }

  /// Scale a host's NIC (tx + rx) capacity relative to its original rate;
  /// factor 1 restores it. The degraded-rate leg of the fault plane.
  void set_host_rate_factor(HostId host, double factor);

  bool cancel(FlowId id) { return network_.cancel_flow(id); }

  PortId tx_port(HostId h) const { return tx_.at(h); }
  RackId host_rack(HostId h) const { return rack_.at(h); }

  FlowNetwork& network() { return network_; }
  const FlowNetwork& network() const { return network_; }
  SimTime link_latency() const { return link_latency_; }
  telemetry::Telemetry& telemetry() { return telemetry_; }

  /// ChunkedStream accounting: `net.chunks` counter plus the
  /// `stream.inflight` gauge (chunk flows currently on the wire).
  void note_chunk_started();
  void note_chunk_finished();
  std::size_t stream_chunks_inflight() const { return stream_inflight_; }

 private:
  struct RackUplink {
    PortId up;
    PortId down;
  };

  /// Per-transfer accounting of one kind of transfer: `net.transfers` /
  /// `net.bytes` counters. The `net.active_flows` gauge is maintained by
  /// the FlowNetwork count hook, not here.
  struct KindCounters {
    KindCounters(telemetry::MetricsRegistry& metrics, const char* kind)
        : transfers(metrics, "net.transfers", {{"kind", kind}}),
          bytes(metrics, "net.bytes", {{"kind", kind}}) {}
    void account(Bytes n) {
      transfers.add(1.0);
      bytes.add(static_cast<double>(n));
    }
    telemetry::MetricHandle transfers;
    telemetry::MetricHandle bytes;
  };

  std::vector<PortId> host_path(HostId src, HostId dst) const;

  FlowNetwork network_;
  telemetry::Telemetry& telemetry_;
  SimTime link_latency_;
  std::size_t stream_inflight_ = 0;
  std::vector<PortId> tx_;
  std::vector<PortId> rx_;
  std::vector<RackId> rack_;
  std::vector<Rate> nic_rate_;
  std::unordered_map<RackId, RackUplink> uplinks_;
  std::unique_ptr<LinkFaultInjector> faults_;
  KindCounters host_transfers_{telemetry_.metrics(), "host"};
  KindCounters to_port_transfers_{telemetry_.metrics(), "to_port"};
  KindCounters from_port_transfers_{telemetry_.metrics(), "from_port"};
  telemetry::MetricHandle active_flows_{telemetry_.metrics(),
                                        "net.active_flows"};
  telemetry::MetricHandle chunks_{telemetry_.metrics(), "net.chunks"};
  telemetry::MetricHandle inflight_gauge_{telemetry_.metrics(),
                                          "stream.inflight"};
};

}  // namespace vdc::net
