#pragma once
// Streaming statistics accumulators used to aggregate Monte-Carlo runs.

#include <cstddef>
#include <vector>

namespace ulpdream::util {

/// Welford online mean/variance accumulator; numerically stable for the
/// long (200+) Monte-Carlo sequences used per experiment point.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (0 for fewer than two samples).
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Exact quantiles over a retained sample vector (fine at our run counts).
class QuantileSketch {
 public:
  void add(double x) { samples_.push_back(x); }
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  /// Linear-interpolated quantile, q in [0, 1]. Returns 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace ulpdream::util
