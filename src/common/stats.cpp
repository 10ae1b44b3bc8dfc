#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace mabfuzz::common {

void RunningStats::add(double x) noexcept {
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

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

namespace {

double percentile_sorted(std::span<const double> sorted, double p) {
  // Guard before the size()-1 rank math: on an empty span it would wrap to
  // SIZE_MAX and index out of bounds.
  if (sorted.empty()) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

Summary summarize(std::span<const double> samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  RunningStats rs;
  for (double x : samples) {
    rs.add(x);
  }
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  // One sort serves all three ranks (the dominant cost of this function).
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  s.median = percentile_sorted(sorted, 50.0);
  s.p25 = percentile_sorted(sorted, 25.0);
  s.p75 = percentile_sorted(sorted, 75.0);
  return s;
}

double speedup_ratio(double baseline, double candidate) noexcept {
  if (baseline <= 0.0 || candidate <= 0.0) {
    return 0.0;
  }
  return baseline / candidate;
}

double percentile(std::span<const double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::vector<double> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_sorted(sorted, p);
}

double median(std::span<const double> samples) { return percentile(samples, 50.0); }

}  // namespace mabfuzz::common
