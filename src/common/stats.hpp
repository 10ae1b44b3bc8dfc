#pragma once
// Streaming and batch statistics used by the experiment harness to
// aggregate multi-run results (means, medians, percentiles) in the same way
// the paper reports repetition-averaged numbers.

#include <cstddef>
#include <span>
#include <vector>

namespace mabfuzz::common {

/// Welford single-pass accumulator: numerically stable mean/variance.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
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

/// Batch summary of a sample vector (the per-cell aggregate the experiment
/// engine reports for every trial metric).
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double median = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p25 = 0.0;
  double p75 = 0.0;
};

/// Computes a full summary; tolerates an empty input (all-zero summary).
[[nodiscard]] Summary summarize(std::span<const double> samples);

/// Linear-interpolation percentile, p in [0,100]. Empty input -> 0.
[[nodiscard]] double percentile(std::span<const double> samples, double p);

/// Pairwise speedup baseline/candidate as the paper's Table I reports it
/// (tests-to-X of the baseline over tests-to-X of the candidate). Guarded:
/// returns 0 when either side is non-positive (undetected / empty cells),
/// so censored cells read as "no measurable speedup" instead of dividing
/// by zero.
[[nodiscard]] double speedup_ratio(double baseline, double candidate) noexcept;

/// Median convenience wrapper.
[[nodiscard]] double median(std::span<const double> samples);

}  // namespace mabfuzz::common
