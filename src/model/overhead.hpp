#pragma once
// Overhead submodels: what T_ov and T_r actually are for each scheme.
//
// Section V-B derives per-scheme overheads from "the amount of data and
// speed of data transmission for each operation":
//
//   disk-full  : base + stream all checkpoints through the single NAS
//                front-end + write them on the NAS array. Synchronous —
//                execution resumes only when the data is durable.
//   diskless   : base + peer exchange (every node sends AND receives its
//                share concurrently over its own full-duplex NIC, so the
//                network step is ~n times faster than the NAS fan-in) +
//                the in-memory XOR. With copy-on-write forks the exchange
//                and XOR overlap execution, so only `base` suspends the
//                guests; the rest is checkpoint *latency* (Plank's
//                overhead-vs-latency distinction, paper Section II-B.2).
//
// The cluster shape follows Figure 4: n nodes, v VMs each, RAID groups of
// k = n-1 data members with parity on the remaining node, rotated.

#include <cstdint>

#include "cluster/heartbeat_config.hpp"
#include "common/hardware.hpp"
#include "common/units.hpp"

namespace vdc::model {

struct ClusterShape {
  std::uint32_t nodes = 4;
  std::uint32_t vms_per_node = 3;
  Bytes vm_image = gib(4);

  std::uint64_t total_vms() const {
    return static_cast<std::uint64_t>(nodes) * vms_per_node;
  }
  Bytes total_bytes() const { return total_vms() * vm_image; }
  /// Data members per RAID group in the Fig. 4 layout.
  std::uint32_t group_size() const { return nodes - 1; }
};

/// Defaults are the simulator's own (common/hardware.hpp), so the model
/// and the discrete-event runs cannot drift apart.
struct HardwareProfile {
  Rate nic = hardware::kNicRate;
  Rate nas_frontend = hardware::kNasFrontendRate;
  Rate nas_disk_write = hardware::kNasWriteRate;
  Rate nas_disk_read = hardware::kNasReadRate;
  Rate xor_rate = hardware::kXorRate;
  /// Guest suspend + device quiesce cost; the paper's 40 ms figure.
  SimTime base_overhead = hardware::kBaseOverhead;
  SimTime resume_time = hardware::kResumeTime;  // restore image + resume

  /// Expected failure-to-detection latency charged per repair: the wire
  /// detector's own timing (0.5 s).
  SimTime detection_time() const {
    return cluster::kExpectedDetectionLatency;
  }
};

struct CheckpointCosts {
  SimTime overhead = 0.0;  // execution suspended per checkpoint (T_ov)
  SimTime latency = 0.0;   // checkpoint usable after this long
  SimTime repair = 0.0;    // per-failure recovery cost (T_r)
};

/// Traditional checkpointing to shared storage (the paper's baseline).
CheckpointCosts diskfull_costs(const ClusterShape& shape,
                               const HardwareProfile& hw);

/// DVDC. `overlap_exchange` selects the copy-on-write variant where the
/// exchange+XOR happen while guests execute (overhead = base only);
/// without it the whole path is synchronous (overhead = latency).
CheckpointCosts diskless_costs(const ClusterShape& shape,
                               const HardwareProfile& hw,
                               bool overlap_exchange = true);

/// Figure 5 scenario: "MTBF 3 h (lambda = 9.26e-5/s), execution 2 days,
/// base overhead 40 ms, 4 physical machines, 12 virtual machines".
struct Fig5Scenario {
  double lambda = 9.26e-5;
  SimTime total_work = days(2);
  ClusterShape shape{4, 3, gib(4)};
  HardwareProfile hw{};
};

Fig5Scenario fig5_scenario();

}  // namespace vdc::model
