#include "net/fabric.hpp"

namespace vdc::net {

void Fabric::note_chunk_started() {
  chunks_.add(1.0);
  inflight_gauge_.set(static_cast<double>(++stream_inflight_));
}

void Fabric::note_chunk_finished() {
  VDC_ASSERT(stream_inflight_ > 0);
  inflight_gauge_.set(static_cast<double>(--stream_inflight_));
}

HostId Fabric::add_host(Rate nic_rate, RackId rack) {
  const auto id = static_cast<HostId>(tx_.size());
  tx_.push_back(network_.add_port(nic_rate));
  rx_.push_back(network_.add_port(nic_rate));
  rack_.push_back(rack);
  nic_rate_.push_back(nic_rate);
  return id;
}

LinkFaultInjector& Fabric::faults() {
  if (!faults_) {
    faults_ = std::make_unique<LinkFaultInjector>(
        telemetry_, Rng(0xfab51c0de5ull));
  }
  return *faults_;
}

void Fabric::set_host_rate_factor(HostId host, double factor) {
  VDC_ASSERT(host < tx_.size());
  VDC_REQUIRE(factor > 0.0, "rate factor must be positive");
  const Rate rate = nic_rate_[host] * factor;
  network_.set_capacity(tx_[host], rate);
  network_.set_capacity(rx_[host], rate);
}

void Fabric::set_rack_uplink(RackId rack, Rate rate) {
  VDC_REQUIRE(!uplinks_.count(rack), "rack uplink already configured");
  RackUplink uplink;
  uplink.up = network_.add_port(rate);
  uplink.down = network_.add_port(rate);
  uplinks_.emplace(rack, uplink);
}

PortId Fabric::add_shared_port(Rate rate) {
  return network_.add_port(rate);
}

std::vector<PortId> Fabric::host_path(HostId src, HostId dst) const {
  std::vector<PortId> path{tx_[src]};
  if (rack_[src] != rack_[dst]) {
    // Cross-rack: traverse the oversubscribed core where configured.
    if (auto it = uplinks_.find(rack_[src]); it != uplinks_.end())
      path.push_back(it->second.up);
    if (auto it = uplinks_.find(rack_[dst]); it != uplinks_.end())
      path.push_back(it->second.down);
  }
  path.push_back(rx_[dst]);
  return path;
}

FlowId Fabric::transfer(HostId src, HostId dst, Bytes bytes,
                        FlowNetwork::Callback on_complete) {
  VDC_ASSERT(src < tx_.size() && dst < rx_.size());
  VDC_ASSERT_MSG(src != dst, "loopback transfers don't traverse the fabric");
  host_transfers_.account(bytes);
  return network_.start_flow(host_path(src, dst), bytes,
                             std::move(on_complete), link_latency_);
}

FlowId Fabric::transfer_judged(HostId src, HostId dst, Bytes bytes,
                               JudgedCallback on_complete) {
  if (!faults_active()) {
    return transfer(src, dst, bytes,
                    [cb = std::move(on_complete)] { cb(Judgement{}); });
  }
  VDC_ASSERT(src < tx_.size() && dst < rx_.size());
  VDC_ASSERT_MSG(src != dst, "loopback transfers don't traverse the fabric");
  const Judgement verdict = faults_->judge(src, dst);
  host_transfers_.account(bytes);
  return network_.start_flow(
      host_path(src, dst), bytes,
      [cb = std::move(on_complete), verdict] { cb(verdict); },
      link_latency_ + verdict.extra_latency);
}

FlowId Fabric::transfer_to_port(HostId src, PortId sink, Bytes bytes,
                                FlowNetwork::Callback on_complete) {
  VDC_ASSERT(src < tx_.size());
  to_port_transfers_.account(bytes);
  return network_.start_flow({tx_[src], sink}, bytes, std::move(on_complete),
                             link_latency_);
}

FlowId Fabric::transfer_from_port(PortId source, HostId dst, Bytes bytes,
                                  FlowNetwork::Callback on_complete) {
  VDC_ASSERT(dst < rx_.size());
  from_port_transfers_.account(bytes);
  return network_.start_flow({source, rx_[dst]}, bytes,
                             std::move(on_complete), link_latency_);
}

}  // namespace vdc::net
