// MABFuzz core tests: the reward function, arm lifecycle, and the
// scheduler's end-to-end behaviour (selection, mutation lineage, depletion
// resets, EXP3 normalisation).

#include <gtest/gtest.h>

#include <cmath>

#include "core/arm.hpp"
#include "core/reward.hpp"
#include "core/scheduler.hpp"
#include "mab/epsilon_greedy.hpp"
#include "mab/exp3.hpp"

namespace mabfuzz::core {
namespace {

// --- reward ---------------------------------------------------------------------

coverage::Map map_with(std::size_t universe, std::initializer_list<int> bits) {
  coverage::Map m(universe);
  for (const int b : bits) {
    m.set(static_cast<coverage::PointId>(b));
  }
  return m;
}

TEST(Reward, LocalAndGlobalSplit) {
  // test covers {1,2,3}; arm already has {1}; global already has {1,2}.
  const auto test = map_with(10, {1, 2, 3});
  const auto arm = map_with(10, {1});
  const auto global = map_with(10, {1, 2});
  const RewardBreakdown r = compute_reward(RewardConfig{0.25}, test, arm, global);
  EXPECT_EQ(r.cov_local, 2u);   // {2,3}
  EXPECT_EQ(r.cov_global, 1u);  // {3}
  EXPECT_DOUBLE_EQ(r.reward, 0.25 * 2 + 0.75 * 1);
}

TEST(Reward, GlobalIsSubsetOfLocal) {
  // covG ⊆ covL always holds when arm coverage ⊆ global coverage.
  const auto test = map_with(64, {0, 5, 9, 33});
  const auto arm = map_with(64, {5});
  auto global = map_with(64, {5, 9});
  const RewardBreakdown r = compute_reward(RewardConfig{0.5}, test, arm, global);
  EXPECT_GE(r.cov_local, r.cov_global);
}

TEST(Reward, AlphaExtremes) {
  const auto test = map_with(10, {1, 2});
  const auto arm = map_with(10, {});
  const auto global = map_with(10, {1});
  EXPECT_DOUBLE_EQ(compute_reward(RewardConfig{1.0}, test, arm, global).reward,
                   2.0);  // pure covL
  EXPECT_DOUBLE_EQ(compute_reward(RewardConfig{0.0}, test, arm, global).reward,
                   1.0);  // pure covG
}

TEST(Reward, NoNewCoverageZeroReward) {
  const auto test = map_with(10, {1});
  const auto arm = map_with(10, {1});
  const auto global = map_with(10, {1});
  EXPECT_DOUBLE_EQ(compute_reward(RewardConfig{0.25}, test, arm, global).reward,
                   0.0);
}

// --- arm -------------------------------------------------------------------------

fuzz::TestCase seed_with_id(std::uint64_t id) {
  fuzz::TestCase t;
  t.id = id;
  t.seed_id = id;
  t.words = {0x13};
  return t;
}

TEST(ArmTest, StartsWithSeedInPool) {
  Arm arm(seed_with_id(1), 100, 3);
  EXPECT_TRUE(arm.has_next());
  EXPECT_EQ(arm.next().id, 1u);
  EXPECT_FALSE(arm.has_next());
  EXPECT_EQ(arm.pulls(), 1u);
}

TEST(ArmTest, ResetReplacesEverything) {
  Arm arm(seed_with_id(1), 100, 2);
  (void)arm.next();
  arm.push(seed_with_id(5));
  arm.coverage().set(3);
  arm.record_gain(0);
  arm.reset(seed_with_id(9));
  EXPECT_EQ(arm.seed().id, 9u);
  EXPECT_EQ(arm.next().id, 9u);
  EXPECT_TRUE(arm.coverage().empty());
  EXPECT_EQ(arm.monitor().zero_streak(), 0u);
  EXPECT_EQ(arm.resets(), 1u);
}

TEST(ArmTest, DepletionAfterGammaZeroGains) {
  Arm arm(seed_with_id(1), 100, 2);
  EXPECT_FALSE(arm.record_gain(0));
  EXPECT_TRUE(arm.record_gain(0));
}

// --- scheduler ----------------------------------------------------------------------

fuzz::Backend make_backend(soc::CoreKind core = soc::CoreKind::kCva6,
                           soc::BugSet bugs = soc::BugSet::none()) {
  fuzz::BackendConfig config;
  config.core = core;
  config.bugs = bugs;
  return fuzz::Backend(config);
}

std::unique_ptr<mab::Bandit> make_eps(std::size_t arms) {
  return std::make_unique<mab::EpsilonGreedy>(arms, 0.1,
                                              common::Xoshiro256StarStar(55));
}

TEST(Scheduler, StepsExecuteAndCoverageGrows) {
  auto backend = make_backend();
  MabScheduler scheduler(backend, make_eps(10), fuzz::PolicyConfig{});
  for (int i = 0; i < 100; ++i) {
    const fuzz::StepResult r = scheduler.step();
    EXPECT_EQ(r.test_index, static_cast<std::uint64_t>(i + 1));
    ASSERT_TRUE(r.arm.has_value());
    EXPECT_LT(*r.arm, 10u);
  }
  EXPECT_GT(scheduler.accumulated().covered(), 0u);
}

TEST(Scheduler, NameReflectsBandit) {
  auto backend = make_backend();
  MabScheduler scheduler(backend, make_eps(10), fuzz::PolicyConfig{});
  EXPECT_EQ(scheduler.name(), "MABFuzz:epsilon-greedy");
}

TEST(Scheduler, ArmsResetOnDepletion) {
  auto backend = make_backend();
  fuzz::PolicyConfig config;
  config.gamma = 2;  // aggressive resets for the test
  MabScheduler scheduler(backend, make_eps(10), config);
  for (int i = 0; i < 600; ++i) {
    scheduler.step();
  }
  // Over 600 pulls with diminishing returns, depleted arms must have been
  // replaced at least once.
  EXPECT_GT(scheduler.total_resets(), 0u);
}

TEST(Scheduler, GammaZeroNeverResets) {
  auto backend = make_backend();
  fuzz::PolicyConfig config;
  config.gamma = 0;
  MabScheduler scheduler(backend, make_eps(10), config);
  for (int i = 0; i < 300; ++i) {
    scheduler.step();
  }
  EXPECT_EQ(scheduler.total_resets(), 0u);
}

TEST(Scheduler, ArmPullsAreTracked) {
  auto backend = make_backend();
  MabScheduler scheduler(backend, make_eps(4), fuzz::PolicyConfig{});
  ASSERT_EQ(scheduler.num_arms(), 4u);  // one arm per bandit arm
  for (int i = 0; i < 80; ++i) {
    scheduler.step();
  }
  std::uint64_t total_pulls = 0;
  for (std::size_t a = 0; a < 4; ++a) {
    total_pulls += scheduler.arm(a).pulls();
  }
  // Arms that were reset lose their pull count; the sum is bounded by steps.
  EXPECT_LE(total_pulls, 80u);
  EXPECT_GT(total_pulls, 0u);
}

TEST(Scheduler, WorksWithExp3Normalisation) {
  auto backend = make_backend();
  auto bandit =
      std::make_unique<mab::Exp3>(10, 0.1, common::Xoshiro256StarStar(77));
  const mab::Exp3* exp3 = bandit.get();
  MabScheduler scheduler(backend, std::move(bandit), fuzz::PolicyConfig{});
  for (int i = 0; i < 200; ++i) {
    scheduler.step();
  }
  // Weights remain finite and form a valid distribution, which they would
  // not if raw (unnormalised) coverage rewards were fed in.
  const auto p = exp3->probabilities();
  double total = 0;
  for (const double v : p) {
    ASSERT_TRUE(std::isfinite(v));
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Scheduler, DetectsEasyBug) {
  auto backend =
      make_backend(soc::CoreKind::kCva6,
                   soc::BugSet::single(soc::BugId::kV5SilentLoadFault));
  MabScheduler scheduler(backend, make_eps(10), fuzz::PolicyConfig{});
  bool detected = false;
  for (int i = 0; i < 500 && !detected; ++i) {
    detected = scheduler.step().mismatch;
  }
  EXPECT_TRUE(detected);
}

}  // namespace
}  // namespace mabfuzz::core
