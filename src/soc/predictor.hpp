#pragma once
// Branch prediction unit: a direct-mapped BTB with 2-bit saturating
// counters. Purely micro-architectural (timing + coverage); never affects
// architectural results. Per-entry coverage points make the BTB one of the
// slowly-saturating replicated structures that give the cores their
// long-tail coverage profile.

#include <cstdint>
#include <vector>

#include "coverage/context.hpp"

namespace mabfuzz::soc {

struct PredictorParams {
  unsigned btb_entries = 256;  // power of two
};

class BranchPredictor {
 public:
  BranchPredictor(const PredictorParams& params, coverage::Context& ctx);

  void reset() noexcept;

  struct Prediction {
    bool btb_hit = false;
    bool predict_taken = false;
  };

  /// Consults the BTB/counters for the branch at `pc`.
  Prediction predict(std::uint64_t pc, coverage::Context& ctx);

  /// Trains on the resolved outcome; marks mispredict/alloc/counter points.
  void update(std::uint64_t pc, bool taken, bool mispredicted,
              coverage::Context& ctx);

  [[nodiscard]] const PredictorParams& params() const noexcept { return params_; }

  // Steady-state loop support (isa/loop_probe.hpp): the valid entries.
  // Invalid ones are unobservable (predict() checks valid, allocation
  // rewrites tag and counter). The touched list holds exactly the valid
  // entries, so it enumerates them.
  struct Snapshot {
    struct Valid {
      std::uint32_t index = 0;
      std::uint8_t counter = 0;
      std::uint64_t tag = 0;
    };
    std::vector<Valid> entries;
  };
  void capture(Snapshot& out) const;
  [[nodiscard]] bool matches(const Snapshot& snapshot) const noexcept;

 private:
  struct Entry {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint8_t counter = 1;  // weakly not-taken
  };

  [[nodiscard]] unsigned index_of(std::uint64_t pc) const noexcept;
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t pc) const noexcept;

  PredictorParams params_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> touched_;  // entries allocated since reset

  coverage::PointId cov_hit_ = 0;        // per entry
  coverage::PointId cov_alloc_ = 0;      // per entry
  coverage::PointId cov_mispredict_ = 0; // per entry
  coverage::PointId cov_ctr_sat_taken_ = 0;     // per entry: counter saturated taken
  coverage::PointId cov_ctr_sat_not_taken_ = 0; // per entry: saturated not-taken
  coverage::PointId cov_conflict_ = 0;   // per entry: tag replacement
};

}  // namespace mabfuzz::soc
