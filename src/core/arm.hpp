#pragma once
// One MABFuzz arm: a seed, its private FIFO test pool (the seed's mutation
// lineage), its arm-local accumulated coverage, and its γ-window depletion
// monitor. Resetting an arm replaces all of this with a fresh seed
// (paper Sec. III-C).

#include <cstdint>

#include "coverage/map.hpp"
#include "coverage/monitor.hpp"
#include "fuzz/pool.hpp"

namespace mabfuzz::core {

class Arm {
 public:
  Arm(fuzz::TestCase seed, std::size_t coverage_universe, std::size_t gamma,
      std::size_t pool_cap = 1024);

  /// The next test to simulate: front of the pool, or (when the lineage is
  /// exhausted) a caller-provided fallback is needed — see has_next().
  [[nodiscard]] bool has_next() const noexcept { return !pool_.empty(); }
  [[nodiscard]] fuzz::TestCase next();

  void push(fuzz::TestCase test) { pool_.push(std::move(test)); }

  /// Records a pull's arm-local gain; true when the arm just depleted.
  bool record_gain(std::size_t cov_local) { return monitor_.record(cov_local); }

  /// Replaces this arm with a fresh seed: new lineage, cleared coverage,
  /// cleared monitor.
  void reset(fuzz::TestCase new_seed);

  [[nodiscard]] const fuzz::TestCase& seed() const noexcept { return seed_; }
  [[nodiscard]] const coverage::Map& coverage() const noexcept { return coverage_; }
  [[nodiscard]] coverage::Map& coverage() noexcept { return coverage_; }
  [[nodiscard]] const coverage::GammaWindowMonitor& monitor() const noexcept {
    return monitor_;
  }
  [[nodiscard]] std::uint64_t pulls() const noexcept { return pulls_; }
  [[nodiscard]] std::uint64_t resets() const noexcept { return resets_; }

 private:
  fuzz::TestCase seed_;
  fuzz::TestPool pool_;
  coverage::Map coverage_;
  coverage::GammaWindowMonitor monitor_;
  std::uint64_t pulls_ = 0;
  std::uint64_t resets_ = 0;
};

}  // namespace mabfuzz::core
