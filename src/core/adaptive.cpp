#include "core/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace vdc::core {

AdaptiveIntervalPolicy::AdaptiveIntervalPolicy(AdaptiveConfig config)
    : config_(config) {
  VDC_REQUIRE(config.lambda > 0.0, "lambda must be positive");
  VDC_REQUIRE(config.min_interval > 0.0 &&
                  config.max_interval > config.min_interval,
              "interval clamp must be a non-empty range");
  VDC_REQUIRE(config.initial > 0.0, "initial interval must be positive");
}

SimTime AdaptiveIntervalPolicy::next_interval(const EpochStats& last) {
  const SimTime observed = last.overhead;
  if (cost_estimate_ < 0.0) {
    cost_estimate_ = observed;
  } else {
    cost_estimate_ =
        kAdaptiveAlpha * observed + (1.0 - kAdaptiveAlpha) * cost_estimate_;
  }
  const SimTime cost = std::max(cost_estimate_, 1e-6);
  const SimTime young = std::sqrt(2.0 * cost / config_.lambda);
  SimTime interval =
      std::clamp(young, config_.min_interval, config_.max_interval);
  if (config_.held_highwater > 0) {
    // Back-pressure: Young's rule optimizes lost work, not client-visible
    // output latency or buffer memory. When the held egress blows past
    // the high-water mark, cap the interval in proportion to the
    // overshoot of the interval that CAUSED it. The cap persists and
    // recovers by doubling across calm epochs — a memoryless correction
    // oscillates (one short calm epoch would erase it, the next long
    // epoch would blow the buffer again).
    if (last.held_egress_peak > config_.held_highwater) {
      const double scale = static_cast<double>(config_.held_highwater) /
                           static_cast<double>(last.held_egress_peak);
      const SimTime basis = last_returned_ > 0.0 ? last_returned_ : interval;
      held_cap_ = std::max(config_.min_interval, basis * scale);
    } else if (held_cap_ < config_.max_interval) {
      held_cap_ = std::min(config_.max_interval, held_cap_ * 2.0);
    }
    interval = std::max(config_.min_interval,
                        std::min(interval, held_cap_));
  }
  last_returned_ = interval;
  return interval;
}

}  // namespace vdc::core
