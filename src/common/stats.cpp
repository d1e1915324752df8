#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace vdc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95_halfwidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

double Samples::mean() const {
  if (xs_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs_) sum += x;
  return sum / static_cast<double>(xs_.size());
}

void Samples::ensure_sorted() const {
  if (!sorted_valid_ || sorted_.size() != xs_.size()) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Samples::percentile(double p) const {
  VDC_ASSERT(p >= 0.0 && p <= 100.0);
  if (xs_.empty()) return 0.0;
  ensure_sorted();
  if (sorted_.size() == 1) return sorted_[0];
  const double rank = p / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] * (1.0 - frac) + sorted_[hi] * frac;
}

}  // namespace vdc
