#include "core/scheduler.hpp"

#include <cstdlib>
#include <utility>

#include "fuzz/corpus.hpp"

namespace mabfuzz::core {

MabScheduler::MabScheduler(fuzz::Backend& backend,
                           std::unique_ptr<mab::Bandit> bandit,
                           const fuzz::PolicyConfig& policy)
    : backend_(backend), bandit_(std::move(bandit)), config_(policy),
      reward_config_{policy.alpha}, global_(backend.coverage_universe()) {
  if (!bandit_) {
    std::abort();  // mis-wired construction is a programming error
  }
  const std::size_t num_arms = bandit_->num_arms();
  arms_.reserve(num_arms);
  pending_seed_length_.assign(num_arms, 0);
  for (std::size_t a = 0; a < num_arms; ++a) {
    arms_.emplace_back(make_fresh_seed(a), backend_.coverage_universe(),
                       config_.gamma, config_.arm_pool_cap);
  }
  name_ = "MABFuzz:" + std::string(bandit_->name());
}

fuzz::TestCase MabScheduler::make_fresh_seed(std::size_t arm_index) {
  if (config_.length_policy) {
    const unsigned length = config_.length_policy->choose();
    pending_seed_length_[arm_index] = length;
    return backend_.make_seed(length);
  }
  return backend_.make_seed();
}

fuzz::StepResult MabScheduler::step() {
  // 1. The agent pulls an arm.
  const std::size_t selected = bandit_->select();
  Arm& arm = arms_[selected];

  // The arm's lineage can run dry when its tests stopped being interesting;
  // the lineage is then continued with a fresh mutant of the arm's seed
  // (the arm still *represents* that seed until the monitor resets it).
  if (!arm.has_next()) {
    arm.push(backend_.make_mutant(arm.seed()));
  }
  const fuzz::TestCase test = arm.next();

  // 2. Simulate on DUT + golden model (reusing the step-outcome buffers).
  backend_.run_test(test, outcome_);

  // 3. Reward from coverage feedback (computed against the pre-update maps).
  const RewardBreakdown reward = compute_reward(
      reward_config_, outcome_.coverage, arm.coverage(), global_.global());

  fuzz::StepResult result;
  result.test_index = ++steps_;
  result.mismatch = outcome_.mismatch;
  result.firings = outcome_.firings;
  result.arm = selected;
  result.new_global_points = global_.absorb(outcome_.coverage);
  arm.coverage().merge(outcome_.coverage);
  if (config_.corpus) {
    config_.corpus->offer(test, outcome_.coverage);
  }

  // 4. Interesting (arm-locally novel) tests extend the arm's lineage.
  if (reward.cov_local > 0) {
    for (unsigned i = 0; i < config_.mutants_per_interesting; ++i) {
      arm.push(backend_.make_mutant(test));
    }
  }

  // Sec. V extensions: operator-level and length-level credit assignment.
  if (config_.feed_operator_rewards && !test.mutation_ops.empty()) {
    const double op_reward = reward.cov_local > 0 ? 1.0 : 0.0;
    for (const std::uint8_t op : test.mutation_ops) {
      backend_.mutation_policy().feedback(static_cast<mutation::Op>(op),
                                          op_reward);
    }
  }
  if (config_.length_policy && test.is_seed() &&
      pending_seed_length_[selected] != 0) {
    config_.length_policy->feedback(pending_seed_length_[selected],
                                    static_cast<double>(reward.cov_global));
    pending_seed_length_[selected] = 0;
  }

  // EXP3 consumes rewards normalised by the total number of coverage
  // points |C| (Algorithm 2, line 6).
  double fed_reward = reward.reward;
  if (bandit_->requires_normalized_reward()) {
    const auto universe = static_cast<double>(backend_.coverage_universe());
    fed_reward = universe > 0 ? fed_reward / universe : 0.0;
  }
  bandit_->update(selected, fed_reward);

  // 5. Depletion check: γ consecutive pulls without arm-local gain replace
  // the arm with a fresh seed and reset the bandit's statistics for it.
  if (arm.record_gain(reward.cov_local)) {
    arm.reset(make_fresh_seed(selected));
    bandit_->reset_arm(selected);
    ++total_resets_;
  }
  return result;
}

void MabScheduler::append_state(std::string& out) const {
  mab::state_put_u64(out, steps_);
  mab::state_put_u64(out, total_resets_);
  bandit_->save_state(out);
}

void MabScheduler::save_state(std::string& out) const {
  common::put_u64(out, steps_);
  common::put_u64(out, total_resets_);
  bandit_->save_state(out);
  common::put_u64(out, arms_.size());
  for (std::size_t a = 0; a < arms_.size(); ++a) {
    arms_[a].save_state(out);
    common::put_u32(out, pending_seed_length_[a]);
  }
  global_.save_state(out);
  if (config_.length_policy) {
    config_.length_policy->save_state(out);
  }
}

void MabScheduler::restore_state(common::ByteReader& in) {
  steps_ = in.u64("scheduler steps");
  total_resets_ = in.u64("scheduler resets");
  bandit_->restore_state(in);
  const std::uint64_t num_arms = in.u64("scheduler arm count");
  if (num_arms != arms_.size()) {
    in.fail("scheduler arm count " + std::to_string(num_arms) +
            " does not match the bandit's " + std::to_string(arms_.size()));
  }
  for (std::size_t a = 0; a < arms_.size(); ++a) {
    arms_[a].restore_state(in);
    pending_seed_length_[a] = in.u32("pending seed length");
  }
  global_.restore_state(in);
  if (config_.length_policy) {
    config_.length_policy->restore_state(in);
  }
}

}  // namespace mabfuzz::core
