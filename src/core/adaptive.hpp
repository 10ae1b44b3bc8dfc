#pragma once
// The paper's Discussion-section extensions (Sec. V), implemented:
//
//  - MabOperatorPolicy: MAB-driven *mutation operator* selection ("most
//    fuzzers choose mutation operators either randomly or following some
//    static probability distribution; this can be improved using MAB
//    algorithms"). Arms = mutation operators; reward = whether the mutant
//    covered anything new for its arm.
//
//  - SeedLengthPolicy: MAB-driven *test length* selection ("MAB algorithms
//    can also be used to decide parameters such as the number of
//    instructions in a test"). Arms = candidate lengths; reward = the
//    globally-new coverage of the freshly generated seed.
//
// Both plug in through fuzz::PolicyConfig and default to off, so the
// paper's original formulation stays the default behaviour.

#include <memory>
#include <string>
#include <vector>

#include "mab/bandit.hpp"
#include "mutation/policy.hpp"

namespace mabfuzz::core {

/// Bandit-driven operator choice. Use a stochastic-stationary algorithm
/// (ε-greedy / UCB / Thompson); EXP3's importance weighting assumes a
/// select-update lockstep that mutation bursts do not follow.
class MabOperatorPolicy final : public mutation::OperatorPolicy {
 public:
  /// `bandit` must have exactly mutation::kNumOps arms.
  explicit MabOperatorPolicy(std::unique_ptr<mab::Bandit> bandit);

  [[nodiscard]] mutation::Op choose(common::Xoshiro256StarStar& rng) override;
  void feedback(mutation::Op op, double reward) override;

  /// The bandit's state.
  void save_state(std::string& out) const override { bandit_->save_state(out); }
  void restore_state(common::ByteReader& in) override {
    bandit_->restore_state(in);
  }

  [[nodiscard]] const mab::Bandit& bandit() const noexcept { return *bandit_; }

 private:
  std::unique_ptr<mab::Bandit> bandit_;
};

/// Bandit-driven seed-length choice.
class SeedLengthPolicy {
 public:
  /// `bandit` must have exactly `choices.size()` arms.
  SeedLengthPolicy(std::vector<unsigned> choices,
                   std::unique_ptr<mab::Bandit> bandit);

  /// Picks the length for the next fresh seed.
  [[nodiscard]] unsigned choose();

  /// Rewards the choice once the seed's first execution reported its
  /// globally-new coverage.
  void feedback(unsigned length, double reward);

  [[nodiscard]] const std::vector<unsigned>& choices() const noexcept {
    return choices_;
  }
  [[nodiscard]] const mab::Bandit& bandit() const noexcept { return *bandit_; }

  /// The bandit's state; the choices are configuration.
  void save_state(std::string& out) const { bandit_->save_state(out); }
  void restore_state(common::ByteReader& in) { bandit_->restore_state(in); }

 private:
  std::vector<unsigned> choices_;
  std::unique_ptr<mab::Bandit> bandit_;
};

}  // namespace mabfuzz::core
