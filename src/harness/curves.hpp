#pragma once
// Coverage-over-time measurement (paper Fig. 3) and the derived speedup /
// increment metrics (paper Fig. 4):
//
//  - coverage speedup  = N_base / M, where the baseline reaches its final
//    coverage C_base after N_base tests and the candidate first reaches
//    C_base after M tests (∞-safe: reported as N_base when never reached).
//  - coverage increment = (C_cand − C_base) / C_base × 100 %.
//
// Curves are built from the Campaign's per-batch snapshots.

#include <cstdint>
#include <optional>
#include <vector>

#include "harness/campaign.hpp"

namespace mabfuzz::harness {

struct CoverageCurve {
  std::vector<std::uint64_t> grid;    // test counts at the sample points
  std::vector<double> covered;        // points covered at each sample
  std::size_t universe = 0;
  double final_covered = 0.0;
};

/// Converts a campaign's batch snapshots into a curve.
[[nodiscard]] CoverageCurve curve_from_snapshots(
    const std::vector<BatchSnapshot>& snapshots);

/// First test count at which `curve` reaches `target` coverage, or
/// std::nullopt when the curve never reaches it. (A returned 0 is a real
/// sample point — e.g. a target of 0 satisfied before any test — not a
/// "never reached" sentinel.)
[[nodiscard]] std::optional<std::uint64_t> tests_to_reach(
    const CoverageCurve& curve, double target);

/// Fig. 4 left axis: speedup of `candidate` over `baseline`.
[[nodiscard]] double coverage_speedup(const CoverageCurve& baseline,
                                      const CoverageCurve& candidate);

/// Fig. 4 right axis: percent increment in final covered points.
[[nodiscard]] double coverage_increment_percent(const CoverageCurve& baseline,
                                                const CoverageCurve& candidate);

}  // namespace mabfuzz::harness
