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
#include "mab/bandit.hpp"

namespace mabfuzz::fuzz {
class Corpus;  // fuzz/corpus.hpp; carried opaquely here
}  // namespace mabfuzz::fuzz

namespace mabfuzz::core {

struct MabFuzzConfig {
  std::size_t num_arms = 10;       // paper Sec. IV-A
  double alpha = 0.25;             // reward mix
  std::size_t gamma = 3;           // reset threshold; 0 disables resets
  unsigned mutants_per_interesting = 5;  // same burst as the baseline
  std::size_t arm_pool_cap = 1024;
  /// Optional Sec. V extension: adaptive seed-length selection. When set,
  /// fresh seeds (initial arms and resets) take their instruction count
  /// from this bandit, rewarded by the seed's globally-new coverage.
  std::shared_ptr<SeedLengthPolicy> length_policy;
  /// When true, mutation-operator rewards (did the mutant cover anything
  /// arm-new?) are fed back to the backend's operator policy. Harmless for
  /// the default static policy; enables the Sec. V adaptive-operator
  /// extension when the backend carries a MabOperatorPolicy.
  bool feed_operator_rewards = true;
  /// Optional cross-campaign store (fuzz/corpus.hpp): every executed test
  /// is offered to it; the corpus's novelty gate decides admission. Null =
  /// no persistence.
  std::shared_ptr<fuzz::Corpus> corpus;
};

class MabScheduler final : public fuzz::Fuzzer {
 public:
  /// `bandit` must have exactly `config.num_arms` arms.
  MabScheduler(fuzz::Backend& backend, std::unique_ptr<mab::Bandit> bandit,
               const MabFuzzConfig& config);

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

  /// Checkpoint state witness: steps, resets, and the bandit's full state.
  void append_state(std::string& out) const override;

 private:
  fuzz::Backend& backend_;
  std::unique_ptr<mab::Bandit> bandit_;
  MabFuzzConfig config_;
  RewardConfig reward_config_;
  fuzz::TestCase make_fresh_seed(std::size_t arm_index);

  std::vector<Arm> arms_;
  std::vector<unsigned> pending_seed_length_;  // per arm; 0 = no feedback due
  coverage::Accumulator global_;
  fuzz::TestOutcome outcome_;  // reused across steps (backend scratch swap)
  std::string name_;
  std::uint64_t steps_ = 0;
  std::uint64_t total_resets_ = 0;
};

}  // namespace mabfuzz::core
