#pragma once
// Gaussian Thompson sampling — the fourth bandit, implementing one of the
// paper's "possibly devise better MAB algorithms for hardware fuzzing"
// future-work directions (Sec. V). Per-arm unknown-mean Gaussian
// posteriors; the posterior standard deviation shrinks as 1/sqrt(n+1).
// reset_arm() re-initialises the arm's posterior to the prior, mirroring
// the reset-arm modification of Algorithm 1.

#include <vector>

#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class Thompson final : public Bandit {
 public:
  Thompson(std::size_t num_arms, common::Xoshiro256StarStar rng);

  std::size_t select() override;
  void update(std::size_t arm, double reward) override;
  void reset_arm(std::size_t arm) override;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "thompson";
  }

  [[nodiscard]] double mean(std::size_t arm) const { return mean_.at(arm); }
  [[nodiscard]] std::uint64_t n(std::size_t arm) const { return n_.at(arm); }

  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

 private:
  [[nodiscard]] double gaussian();

  common::Xoshiro256StarStar rng_;
  std::vector<double> mean_;
  std::vector<std::uint64_t> n_;
};

}  // namespace mabfuzz::mab
