#pragma once
// The MABFuzz scheduler — the paper's contribution (Fig. 2):
//
//   1. The MAB agent selects an arm (= a seed with its own test pool).
//   2. The arm's next test is simulated on the DUT; coverage feedback and
//      differential-testing results come back from the shared backend.
//   3. The reward R_t = α|covL| + (1-α)|covG| updates the agent
//      (normalised by |C| for EXP3).
//   4. Interesting tests (arm-locally new coverage) spawn mutants into the
//      arm's pool.
//   5. The γ-window monitor marks depleted arms; a depleted arm is replaced
//      by a fresh random seed and the bandit's statistics for it are reset
//      (modified Algorithms 1 & 2).
//
// The scheduler is agnostic to the bandit algorithm and to the fuzzing
// backend — any mab::Bandit and any core/bug configuration plug in.

#include <memory>
#include <vector>

#include "core/adaptive.hpp"
#include "core/arm.hpp"
#include "core/reward.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/registry.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::core {

class MabScheduler final : public fuzz::Fuzzer {
 public:
  /// One arm per bandit arm. Reads the MABFuzz shaping knobs of `policy`:
  /// alpha, gamma (0 disables resets), the mutant burst shared with the
  /// baseline, the arm pool cap, operator-reward feedback, the optional
  /// Sec. V seed-length policy and the optional cross-campaign corpus
  /// (every executed test is offered to it).
  MabScheduler(fuzz::Backend& backend, std::unique_ptr<mab::Bandit> bandit,
               const fuzz::PolicyConfig& policy);

  fuzz::StepResult step() override;

  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return global_;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] const Arm& arm(std::size_t index) const { return arms_.at(index); }
  [[nodiscard]] fuzz::Backend& backend() noexcept { return backend_; }
  [[nodiscard]] std::size_t num_arms() const noexcept { return arms_.size(); }
  [[nodiscard]] const mab::Bandit& bandit() const noexcept { return *bandit_; }
  [[nodiscard]] std::uint64_t total_resets() const noexcept { return total_resets_; }

  /// Steps, resets and the bandit; every arm's state with its pending
  /// seed length; the global map; and the seed-length policy's bandit
  /// when adaptive length is on.
  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

  /// Decision-state witness for the campaign benchmark's replica: steps,
  /// resets, and the bandit's full state.
  void append_state(std::string& out) const override;

 private:
  fuzz::Backend& backend_;
  std::unique_ptr<mab::Bandit> bandit_;
  fuzz::PolicyConfig config_;
  RewardConfig reward_config_;
  fuzz::TestCase make_fresh_seed(std::size_t arm_index);

  std::vector<Arm> arms_;
  std::vector<unsigned> pending_seed_length_;  // per arm; 0 = no feedback due
  coverage::Accumulator global_;
  std::string name_;
  std::uint64_t steps_ = 0;
  std::uint64_t total_resets_ = 0;
};

}  // namespace mabfuzz::core
