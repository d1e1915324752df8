#pragma once
// Adaptive checkpoint-interval policy (paper Section II-B.1).
//
// With incremental checkpointing the cost of an epoch is not constant —
// it tracks the dirty set. The classic fixed interval derived offline is
// then wrong in both directions: it checkpoints too rarely when epochs
// are cheap and too often when they are expensive. The adaptive policy
// re-derives Young's rule online,
//
//     N* = sqrt(2 * T_hat / lambda)
//
// where T_hat is an exponentially weighted estimate of the per-epoch
// overhead (the time guests stay suspended for a checkpoint).

#include <limits>

#include "common/units.hpp"
#include "core/protocol.hpp"

namespace vdc::core {

/// EWMA weight of the newest epoch in the per-epoch cost estimate.
inline constexpr double kAdaptiveAlpha = 0.3;

struct AdaptiveConfig {
  /// Cluster-wide failure rate the rule is derived for.
  double lambda = 9.26e-5;
  /// Clamp the derived interval.
  SimTime min_interval = 1.0;
  SimTime max_interval = hours(4);
  /// Interval before any cost has been observed.
  SimTime initial = minutes(5);
  /// Output-commit back-pressure high-water mark (bytes of held guest
  /// egress). When > 0 and the last epoch's held peak
  /// (EpochStats::held_egress_peak) exceeded it, a persistent cap on the
  /// interval shrinks proportionally — peak at 2x the mark halves the
  /// cap — so committing more often drains the egress buffer. The cap
  /// recovers by doubling across calm epochs rather than vanishing, which
  /// keeps the policy from oscillating between one calm short epoch and a
  /// buffer-blowing long one. Never shortens below min_interval; 0
  /// disables the term.
  Bytes held_highwater = 0;
};

/// Decides how much work to run before the next checkpoint. The job
/// runner builds one per run (JobConfig::adaptive_interval).
class AdaptiveIntervalPolicy {
 public:
  explicit AdaptiveIntervalPolicy(AdaptiveConfig config);

  /// Interval to use before the first checkpoint.
  SimTime initial_interval() const { return config_.initial; }

  /// Called after each committed epoch; returns the next interval.
  SimTime next_interval(const EpochStats& last);

  /// Current smoothed per-epoch cost estimate.
  SimTime cost_estimate() const { return cost_estimate_; }

 private:
  AdaptiveConfig config_;
  SimTime cost_estimate_ = -1.0;  // < 0: no observation yet
  /// Back-pressure cap on the returned interval; +inf until the held
  /// egress first overshoots the high-water mark.
  SimTime held_cap_ = std::numeric_limits<double>::infinity();
  SimTime last_returned_ = 0.0;  // 0: nothing returned yet
};

}  // namespace vdc::core
