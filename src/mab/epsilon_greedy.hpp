#pragma once
// Modified ε-greedy (paper Algorithm 1): incremental value estimates
// Q(a) with counts N(a); exploit argmax Q with probability 1-ε, explore
// uniformly with probability ε. reset_arm() zeroes N(a) and Q(a)
// (Algorithm 1, lines 11-12).

#include <vector>

#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class EpsilonGreedy final : public Bandit {
 public:
  EpsilonGreedy(std::size_t num_arms, double epsilon,
                common::Xoshiro256StarStar rng);

  std::size_t select() override;
  void update(std::size_t arm, double reward) override;
  void reset_arm(std::size_t arm) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "epsilon-greedy";
  }

  [[nodiscard]] double q(std::size_t arm) const { return q_.at(arm); }
  [[nodiscard]] std::uint64_t n(std::size_t arm) const { return n_.at(arm); }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }

  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

 private:
  double epsilon_;
  common::Xoshiro256StarStar rng_;
  std::vector<double> q_;
  std::vector<std::uint64_t> n_;
};

}  // namespace mabfuzz::mab
