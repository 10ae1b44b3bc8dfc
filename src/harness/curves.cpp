#include "harness/curves.hpp"

namespace mabfuzz::harness {

CoverageCurve curve_from_snapshots(const std::vector<BatchSnapshot>& snapshots) {
  CoverageCurve curve;
  curve.grid.reserve(snapshots.size());
  curve.covered.reserve(snapshots.size());
  for (const BatchSnapshot& snapshot : snapshots) {
    curve.grid.push_back(snapshot.tests_executed);
    curve.covered.push_back(static_cast<double>(snapshot.covered));
    curve.universe = snapshot.universe;
  }
  curve.final_covered = curve.covered.empty() ? 0.0 : curve.covered.back();
  return curve;
}

std::optional<std::uint64_t> tests_to_reach(const CoverageCurve& curve,
                                            double target) {
  for (std::size_t i = 0; i < curve.grid.size(); ++i) {
    if (curve.covered[i] >= target) {
      return curve.grid[i];
    }
  }
  return std::nullopt;
}

double coverage_speedup(const CoverageCurve& baseline,
                        const CoverageCurve& candidate) {
  if (baseline.grid.empty() || candidate.grid.empty()) {
    return 1.0;
  }
  const double target = baseline.final_covered;
  const std::uint64_t baseline_tests = baseline.grid.back();
  const std::optional<std::uint64_t> candidate_tests =
      tests_to_reach(candidate, target);
  if (!candidate_tests) {
    // Candidate never reached the baseline's final coverage: speedup < 1,
    // lower-bounded by assuming it would get there right after the run.
    const double candidate_final =
        candidate.final_covered > 0 ? candidate.final_covered : 1.0;
    return candidate_final / (target > 0 ? target : 1.0);
  }
  // A sample point of 0 tests (target already satisfied before any test)
  // counts as 1 so the ratio stays finite.
  const std::uint64_t reached_at = *candidate_tests > 0 ? *candidate_tests : 1;
  return static_cast<double>(baseline_tests) /
         static_cast<double>(reached_at);
}

double coverage_increment_percent(const CoverageCurve& baseline,
                                  const CoverageCurve& candidate) {
  if (baseline.final_covered <= 0) {
    return 0.0;
  }
  return (candidate.final_covered - baseline.final_covered) /
         baseline.final_covered * 100.0;
}

}  // namespace mabfuzz::harness
