#pragma once
// Modified UCB1 (paper Algorithm 1, line 6): select
// argmax_a [ Q(a) + sqrt(2 ln t / N(a)) ], with unpulled arms (N = 0)
// taking infinite bonus. reset_arm() zeroes N(a) and Q(a), making the
// fresh arm an immediate exploration target — the behaviour the paper's
// modification is designed to produce.

#include <vector>

#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class Ucb final : public Bandit {
 public:
  Ucb(std::size_t num_arms, common::Xoshiro256StarStar rng);

  std::size_t select() override;
  void update(std::size_t arm, double reward) override;
  void reset_arm(std::size_t arm) override;

  [[nodiscard]] std::string_view name() const noexcept override { return "ucb"; }

  [[nodiscard]] double q(std::size_t arm) const { return q_.at(arm); }
  [[nodiscard]] std::uint64_t n(std::size_t arm) const { return n_.at(arm); }
  [[nodiscard]] std::uint64_t t() const noexcept { return t_; }

  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

 private:
  common::Xoshiro256StarStar rng_;
  std::vector<double> q_;
  std::vector<std::uint64_t> n_;
  std::uint64_t t_ = 0;  // total pulls
};

}  // namespace mabfuzz::mab
