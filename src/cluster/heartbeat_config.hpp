#pragma once
// Heartbeat detector timing, shared between the wire-true detector
// (cluster::HeartbeatDetector) and the Section-V analytical model
// (model::HardwareProfile), so the model's detection term and the
// simulator's measured detection latency derive from one source of truth
// instead of two hard-coded 0.5 s constants.

#include "common/units.hpp"

namespace vdc::cluster {

struct HeartbeatConfig {
  /// Beat emission period.
  SimTime period = milliseconds(100);
  /// Silence before a node is declared failed. The default pair yields an
  /// expected detection latency of exactly 0.5 s — the figure the model
  /// (and the job runner's oracle detection path) charges for detection.
  SimTime timeout = milliseconds(450);

  /// Expected crash-to-detection latency: the crash lands uniformly
  /// within a beat period and the detector's check also ticks once per
  /// period, so on average detection costs the timeout plus half a
  /// period.
  constexpr SimTime expected_detection_latency() const {
    return timeout + period / 2.0;
  }
};

}  // namespace vdc::cluster
