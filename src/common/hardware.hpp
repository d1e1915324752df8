#pragma once
// The paper's Figure 5 hardware, defined once. The Section V model
// (model::HardwareProfile) and the simulator (cluster::NodeSpec,
// storage::NasSpec, the protocol and disk-full configs, the recovery
// paths) take their defaults from here, so the analytic curves and the
// discrete-event runs describe the same machines. Detection timing lives
// beside the heartbeat detector (cluster/heartbeat_config.hpp).

#include "common/units.hpp"

namespace vdc::hardware {

/// Node NIC: 10 Gbit/s Ethernet.
inline constexpr Rate kNicRate = gbit_per_s(10);
/// Memory XOR/copy bandwidth for parity work on a node.
inline constexpr Rate kXorRate = gib_per_s(4);
/// NAS head uplink.
inline constexpr Rate kNasFrontendRate = gbit_per_s(10);
/// NAS disk array write and read bandwidth.
inline constexpr Rate kNasWriteRate = mib_per_s(400);
inline constexpr Rate kNasReadRate = mib_per_s(500);
/// Guest suspend + device quiesce cost per checkpoint: the paper's 40 ms.
inline constexpr SimTime kBaseOverhead = 0.040;
/// Re-create a lost VM from its restored image and resume it.
inline constexpr SimTime kResumeTime = 5.0;

}  // namespace vdc::hardware
