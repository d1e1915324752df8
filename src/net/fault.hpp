#pragma once
// Link/NIC fault plane: the unreliable-fabric model.
//
// A LinkFaultInjector holds per-host (NIC) and per-directed-link fault
// state — drop probability, in-transit payload corruption, extra latency
// and jitter, degraded rate, hard cuts — plus partition groups that sever
// whole sets of hosts from each other. Directed link overrides compose on
// top of the endpoint NIC faults, so one direction of a link can go "gray"
// while the reverse stays clean.
//
// The Fabric consults the plane once per judged frame (a chunk of a
// ChunkedStream, or a heartbeat): judge() decides whether the payload
// arrives intact, corrupted, or not at all, and how much extra head
// latency it suffers. The verdict for a corrupted frame names a bit to
// flip; the *receiver* then flips that bit in its frame descriptor and
// rejects the frame because its CRC32 actually mismatches — integrity is
// checked, not assumed.
//
// The injector owns its own Rng, so configuring faults never perturbs the
// simulation's primary random streams, and while no fault has ever been
// configured the plane reports disabled and consumes no randomness at
// all — the zero-fault equivalence guarantee.

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::net {

using HostId = std::uint32_t;

/// Fault state of one NIC or one directed link.
struct LinkFault {
  double drop = 0.0;            ///< per-frame drop probability
  double corrupt = 0.0;         ///< per-frame bit-flip probability
  SimTime extra_latency = 0.0;  ///< added head latency per frame
  SimTime jitter = 0.0;         ///< extra uniform latency in [0, jitter)
  /// NIC capacity scale; applied by Fabric::set_host_rate_factor when a
  /// host-level fault is installed (links have no capacity of their own).
  double rate_factor = 1.0;
  bool cut = false;             ///< hard partition: nothing gets through

  bool clean() const {
    return drop == 0.0 && corrupt == 0.0 && extra_latency == 0.0 &&
           jitter == 0.0 && !cut;
  }
};

/// What happened to a judged frame on the wire.
enum class Delivery { kDelivered, kCorrupted, kDropped };

/// judge() verdict: outcome, extra head latency, and — for corrupted
/// frames — which bit the wire flipped (receivers reduce it modulo their
/// frame size).
struct Judgement {
  Delivery outcome = Delivery::kDelivered;
  SimTime extra_latency = 0.0;
  std::uint64_t corrupt_bit = 0;
};

/// Receive-side integrity check for a judged-corrupt frame: copy `frame`,
/// flip `bit` (mod the frame's bit length), recompute CRC32 and compare
/// against `crc`. Returns true when the checksum catches the flip — which
/// CRC32 guarantees for any single-bit error, but the arithmetic is done,
/// not assumed.
bool crc_catches_flip(std::span<const std::byte> frame, std::uint32_t crc,
                      std::uint64_t bit);

class LinkFaultInjector {
 public:
  LinkFaultInjector(telemetry::Telemetry& telemetry, Rng rng)
      : rng_(rng), drops_(telemetry.metrics(), "net.drops") {}

  /// Sticky: true once any fault or partition has ever been configured
  /// (healing does not reset it). While false, the Fabric's judged path
  /// is event-for-event identical to the plain transfer path.
  bool enabled() const { return enabled_; }

  /// NIC-level fault: applies to every frame entering or leaving `host`.
  void set_host_fault(HostId host, LinkFault fault);

  /// Directed src -> dst override, composed on top of the NIC faults.
  void set_link_fault(HostId src, HostId dst, LinkFault fault);

  /// Hosts in different partition groups cannot exchange frames. Group 0
  /// is the default, fully-connected group.
  void set_partition_group(HostId host, std::uint32_t group);
  std::uint32_t partition_group(HostId host) const;

  /// Clear every fault and partition touching `host`.
  void heal(HostId host);
  /// Clear all faults and partitions (the plane stays enabled).
  void heal_all();

  bool partitioned(HostId src, HostId dst) const;

  /// Combined fault state for a src -> dst frame: drop/corrupt
  /// probabilities compose independently across src NIC, dst NIC and the
  /// directed link; latencies add; jitter takes the max; any cut cuts.
  LinkFault effective(HostId src, HostId dst) const;

  /// Decide the fate of one frame. Consumes randomness only when a fault
  /// actually covers this path. Dropped frames bump `net.drops`.
  Judgement judge(HostId src, HostId dst);

 private:
  static std::uint64_t link_key(HostId src, HostId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  Rng rng_;
  telemetry::MetricHandle drops_;
  bool enabled_ = false;
  std::unordered_map<HostId, LinkFault> host_faults_;
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  std::unordered_map<HostId, std::uint32_t> groups_;
};

}  // namespace vdc::net
