#include "net/fault.hpp"

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/crc32.hpp"

namespace vdc::net {

bool crc_catches_flip(std::span<const std::byte> frame, std::uint32_t crc,
                      std::uint64_t bit) {
  if (frame.empty()) return false;
  std::vector<std::byte> flipped(frame.begin(), frame.end());
  const std::uint64_t b = bit % (flipped.size() * 8);
  flipped[b / 8] ^= std::byte{1} << (b % 8);
  return crc32(flipped) != crc;
}

void LinkFaultInjector::set_host_fault(HostId host, LinkFault fault) {
  VDC_REQUIRE(fault.drop >= 0.0 && fault.drop <= 1.0,
              "drop probability must be in [0, 1]");
  VDC_REQUIRE(fault.corrupt >= 0.0 && fault.corrupt <= 1.0,
              "corrupt probability must be in [0, 1]");
  VDC_REQUIRE(fault.extra_latency >= 0.0 && fault.jitter >= 0.0,
              "latency terms must be non-negative");
  VDC_REQUIRE(fault.rate_factor > 0.0, "rate factor must be positive");
  enabled_ = true;
  host_faults_[host] = fault;
}

void LinkFaultInjector::set_link_fault(HostId src, HostId dst,
                                       LinkFault fault) {
  VDC_REQUIRE(src != dst, "a link needs two distinct endpoints");
  VDC_REQUIRE(fault.drop >= 0.0 && fault.drop <= 1.0,
              "drop probability must be in [0, 1]");
  VDC_REQUIRE(fault.corrupt >= 0.0 && fault.corrupt <= 1.0,
              "corrupt probability must be in [0, 1]");
  VDC_REQUIRE(fault.extra_latency >= 0.0 && fault.jitter >= 0.0,
              "latency terms must be non-negative");
  enabled_ = true;
  link_faults_[link_key(src, dst)] = fault;
}

void LinkFaultInjector::set_partition_group(HostId host,
                                            std::uint32_t group) {
  enabled_ = true;
  if (group == 0)
    groups_.erase(host);
  else
    groups_[host] = group;
}

std::uint32_t LinkFaultInjector::partition_group(HostId host) const {
  const auto it = groups_.find(host);
  return it == groups_.end() ? 0 : it->second;
}

void LinkFaultInjector::heal(HostId host) {
  host_faults_.erase(host);
  groups_.erase(host);
  for (auto it = link_faults_.begin(); it != link_faults_.end();) {
    const HostId src = static_cast<HostId>(it->first >> 32);
    const HostId dst = static_cast<HostId>(it->first & 0xffffffffu);
    if (src == host || dst == host)
      it = link_faults_.erase(it);
    else
      ++it;
  }
}

void LinkFaultInjector::heal_all() {
  host_faults_.clear();
  link_faults_.clear();
  groups_.clear();
}

bool LinkFaultInjector::partitioned(HostId src, HostId dst) const {
  return partition_group(src) != partition_group(dst);
}

LinkFault LinkFaultInjector::effective(HostId src, HostId dst) const {
  // Independent loss processes compose as p = 1 - (1-a)(1-b); latencies
  // accumulate along the path; the strongest jitter dominates.
  LinkFault out;
  const auto fold = [&out](const LinkFault& f) {
    out.drop = 1.0 - (1.0 - out.drop) * (1.0 - f.drop);
    out.corrupt = 1.0 - (1.0 - out.corrupt) * (1.0 - f.corrupt);
    out.extra_latency += f.extra_latency;
    out.jitter = std::max(out.jitter, f.jitter);
    out.cut = out.cut || f.cut;
  };
  if (const auto it = host_faults_.find(src); it != host_faults_.end())
    fold(it->second);
  if (const auto it = host_faults_.find(dst); it != host_faults_.end())
    fold(it->second);
  if (const auto it = link_faults_.find(link_key(src, dst));
      it != link_faults_.end())
    fold(it->second);
  if (partitioned(src, dst)) out.cut = true;
  return out;
}

Judgement LinkFaultInjector::judge(HostId src, HostId dst) {
  Judgement verdict;
  const LinkFault fault = effective(src, dst);
  if (fault.clean()) return verdict;
  if (fault.cut) {
    // A severed path: the frame burns its wire time and vanishes.
    verdict.outcome = Delivery::kDropped;
    drops_.add(1.0);
    return verdict;
  }
  verdict.extra_latency = fault.extra_latency;
  if (fault.jitter > 0.0) verdict.extra_latency += rng_.uniform(0.0, fault.jitter);
  if (fault.drop > 0.0 && rng_.chance(fault.drop)) {
    verdict.outcome = Delivery::kDropped;
    drops_.add(1.0);
    return verdict;
  }
  if (fault.corrupt > 0.0 && rng_.chance(fault.corrupt)) {
    verdict.outcome = Delivery::kCorrupted;
    verdict.corrupt_bit = rng_.next();
  }
  return verdict;
}

}  // namespace vdc::net
