#pragma once
// Modified EXP3 (paper Algorithm 2): sampling distribution
//   P(a) = (1-η) W(a)/Σ W + η/|A|,
// importance-weighted update W(A) *= exp(η x / |A|) with x = r / P(A),
// rewards normalised to [0,1] by the caller (Algorithm 2, line 6).
// reset_arm() sets W(A) to the mean weight of the surviving arms
// (Algorithm 2, line 10).

#include <vector>

#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class Exp3 final : public Bandit {
 public:
  Exp3(std::size_t num_arms, double eta, common::Xoshiro256StarStar rng);

  std::size_t select() override;
  void update(std::size_t arm, double reward) override;
  void reset_arm(std::size_t arm) override;

  [[nodiscard]] bool requires_normalized_reward() const noexcept override {
    return true;
  }
  [[nodiscard]] std::string_view name() const noexcept override { return "exp3"; }

  [[nodiscard]] double weight(std::size_t arm) const { return w_.at(arm); }
  [[nodiscard]] double eta() const noexcept { return eta_; }

  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

  /// Current sampling distribution (exposed for tests).
  [[nodiscard]] std::vector<double> probabilities() const;

 private:
  void renormalize_if_needed();

  double eta_;
  common::Xoshiro256StarStar rng_;
  std::vector<double> w_;
  std::size_t last_selected_ = 0;
  double last_prob_ = 1.0;  // P(a) of the last selection, for the update
};

}  // namespace mabfuzz::mab
