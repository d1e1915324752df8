#pragma once
// Streaming and batch statistics used by the simulator and benchmarks.

#include <cstddef>
#include <vector>

namespace vdc {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  /// Half-width of the 95% normal-approximation confidence interval.
  double ci95_halfwidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch sample container with percentile queries (keeps all samples).
class Samples {
 public:
  void add(double x) { xs_.push_back(x); }
  std::size_t count() const { return xs_.size(); }
  double mean() const;
  /// Percentile in [0, 100] by linear interpolation; 0.0 when empty (so
  /// exporters can query an untouched series without guarding).
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  const std::vector<double>& values() const { return xs_; }

 private:
  std::vector<double> xs_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  void ensure_sorted() const;
};

}  // namespace vdc
