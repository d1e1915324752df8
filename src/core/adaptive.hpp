#pragma once
// Adaptive checkpoint-interval policies (paper Section II-B.1).
//
// With incremental checkpointing the cost of an epoch is not constant —
// it tracks the dirty set. The classic fixed interval derived offline is
// then wrong in both directions: it checkpoints too rarely when epochs
// are cheap and too often when they are expensive. The adaptive policy
// re-derives Young's rule online,
//
//     N* = sqrt(2 * T_hat / lambda)
//
// where T_hat is an exponentially weighted estimate of the *effective*
// per-epoch cost. For overlapped (copy-on-write) capture the cost that
// matters for rollback exposure is the commit latency, so the policy can
// be pointed at either the overhead or the latency signal.

#include <limits>
#include <memory>

#include "common/units.hpp"
#include "core/protocol.hpp"

namespace vdc::core {

/// Decides how much work to run before the next checkpoint.
class IntervalPolicy {
 public:
  virtual ~IntervalPolicy() = default;

  /// Interval to use before the first checkpoint.
  virtual SimTime initial_interval() const = 0;

  /// Called after each committed epoch; returns the next interval.
  virtual SimTime next_interval(const EpochStats& last) = 0;

  virtual std::string name() const = 0;
};

struct AdaptiveConfig {
  /// Cluster-wide failure rate the rule is derived for.
  double lambda = 9.26e-5;
  /// EWMA smoothing for the per-epoch cost estimate.
  double alpha = 0.3;
  /// Use latency (time to a usable checkpoint) instead of overhead as the
  /// cost signal — appropriate for overlapped capture.
  bool use_latency = false;
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

class AdaptiveIntervalPolicy final : public IntervalPolicy {
 public:
  explicit AdaptiveIntervalPolicy(AdaptiveConfig config);
  SimTime initial_interval() const override { return config_.initial; }
  SimTime next_interval(const EpochStats& last) override;
  std::string name() const override { return "adaptive"; }

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
