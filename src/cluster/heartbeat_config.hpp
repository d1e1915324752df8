#pragma once
// Heartbeat detector timing, shared between the wire-true detector
// (cluster::HeartbeatDetector) and the Section-V analytical model
// (model::HardwareProfile), so the model's detection term and the
// simulator's measured detection latency derive from one source of truth
// instead of two hard-coded 0.5 s constants.

#include "common/units.hpp"

namespace vdc::cluster {

/// Beat emission period.
inline constexpr SimTime kHeartbeatPeriod = milliseconds(100);
/// Silence before a node is declared failed.
inline constexpr SimTime kHeartbeatTimeout = milliseconds(450);
/// Expected crash-to-detection latency, the figure the model and the job
/// runner's oracle detection path charge: the timeout plus half a period
/// (0.5 s), for a check whose phase is independent of the crash's. The
/// wire detector checks on the beats' own phase, so its measured latency
/// averages the timeout itself (0.45 s).
inline constexpr SimTime kExpectedDetectionLatency =
    kHeartbeatTimeout + kHeartbeatPeriod / 2.0;

/// Turns on wire-true detection (core::JobConfig::heartbeat); the detector
/// runs at the timing above.
struct HeartbeatConfig {};

}  // namespace vdc::cluster
