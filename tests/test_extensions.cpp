// Tests for the Sec. V extensions: adaptive mutation-operator selection,
// adaptive seed-length selection, Thompson sampling, and their scheduler
// integration.

#include <gtest/gtest.h>

#include "core/adaptive.hpp"
#include "core/scheduler.hpp"
#include "fuzz/backend.hpp"
#include "mab/registry.hpp"
#include "mab/thompson.hpp"

namespace mabfuzz::core {
namespace {

std::unique_ptr<mab::Bandit> op_bandit(double epsilon = 0.1) {
  mab::BanditConfig config;
  config.num_arms = mutation::kNumOps;
  config.epsilon = epsilon;
  return mab::make_bandit("epsilon-greedy", config);
}

// --- MabOperatorPolicy ----------------------------------------------------------

TEST(MabOperatorPolicy, LearnsRiggedOperatorRewards) {
  MabOperatorPolicy policy(op_bandit(0.05));
  common::Xoshiro256StarStar rng(3);
  // Reward only byteflip; every other operator earns nothing.
  for (int i = 0; i < 600; ++i) {
    const mutation::Op op = policy.choose(rng);
    policy.feedback(op, op == mutation::Op::kByteFlip ? 1.0 : 0.0);
  }
  int byteflip = 0;
  for (int i = 0; i < 200; ++i) {
    byteflip += policy.choose(rng) == mutation::Op::kByteFlip;
  }
  EXPECT_GT(byteflip, 120);  // concentrated on the rewarded arm
}

TEST(MabOperatorPolicy, WrongArmCountAborts) {
  mab::BanditConfig config;
  config.num_arms = 3;
  EXPECT_DEATH(MabOperatorPolicy(mab::make_bandit("ucb", config)),
               "");
}

TEST(MabOperatorPolicy, DrivesEngineChoices) {
  auto policy = std::make_shared<MabOperatorPolicy>(op_bandit(0.0));
  // Teach it to love instr_swap before wiring into the engine.
  common::Xoshiro256StarStar rng(5);
  for (int i = 0; i < 200; ++i) {
    const mutation::Op op = policy->choose(rng);
    policy->feedback(op, op == mutation::Op::kInstrSwap ? 1.0 : 0.0);
  }
  mutation::Engine engine(common::Xoshiro256StarStar(7), policy);
  std::vector<isa::Word> parent = {0x13, 0x13, 0x93, 0x113};
  for (int i = 0; i < 100; ++i) {
    (void)engine.mutate(parent);
  }
  const auto swap_count =
      engine.op_counts()[static_cast<std::size_t>(mutation::Op::kInstrSwap)];
  std::uint64_t total = 0;
  for (const auto c : engine.op_counts()) {
    total += c;
  }
  EXPECT_GT(swap_count, total / 2);  // the learned preference dominates
}

// --- SeedLengthPolicy -----------------------------------------------------------

std::unique_ptr<mab::Bandit> len_bandit(std::size_t arms) {
  mab::BanditConfig config;
  config.num_arms = arms;
  config.epsilon = 0.05;
  return mab::make_bandit("epsilon-greedy", config);
}

TEST(SeedLengthPolicy, ChoosesFromConfiguredLengths) {
  SeedLengthPolicy policy({12, 20, 28}, len_bandit(3));
  for (int i = 0; i < 50; ++i) {
    const unsigned length = policy.choose();
    EXPECT_TRUE(length == 12 || length == 20 || length == 28);
  }
}

TEST(SeedLengthPolicy, LearnsBestLength) {
  SeedLengthPolicy policy({12, 20, 28}, len_bandit(3));
  for (int i = 0; i < 400; ++i) {
    const unsigned length = policy.choose();
    policy.feedback(length, length == 28 ? 10.0 : 1.0);
  }
  int best = 0;
  for (int i = 0; i < 100; ++i) {
    best += policy.choose() == 28;
  }
  EXPECT_GT(best, 60);
}

TEST(SeedLengthPolicy, IgnoresUnknownLengthFeedback) {
  SeedLengthPolicy policy({12, 20}, len_bandit(2));
  policy.feedback(999, 100.0);  // silently ignored
  SUCCEED();
}

TEST(SeedLengthPolicy, MismatchedArmsAbort) {
  EXPECT_DEATH(SeedLengthPolicy({12, 20, 28}, len_bandit(2)), "");
}

// --- scheduler integration ---------------------------------------------------------

TEST(AdaptiveScheduler, RunsWithOperatorPolicy) {
  fuzz::BackendConfig backend_config;
  backend_config.core = soc::CoreKind::kCva6;
  auto policy = std::make_shared<MabOperatorPolicy>(op_bandit());
  backend_config.operator_policy = policy;
  fuzz::Backend backend(backend_config);

  const fuzz::PolicyConfig config;
  MabScheduler scheduler(backend, mab::make_bandit("ucb", config.bandit),
                         config);
  for (int i = 0; i < 300; ++i) {
    scheduler.step();
  }
  EXPECT_GT(scheduler.accumulated().covered(), 0u);
}

TEST(AdaptiveScheduler, RunsWithLengthPolicy) {
  fuzz::BackendConfig backend_config;
  backend_config.core = soc::CoreKind::kCva6;
  fuzz::Backend backend(backend_config);

  fuzz::PolicyConfig config;
  config.gamma = 2;  // force resets so multiple lengths get sampled
  config.length_policy =
      std::make_shared<SeedLengthPolicy>(std::vector<unsigned>{8, 20, 40},
                                         len_bandit(3));
  MabScheduler scheduler(backend, mab::make_bandit("ucb", config.bandit),
                         config);
  for (int i = 0; i < 400; ++i) {
    scheduler.step();
  }
  EXPECT_GT(scheduler.total_resets(), 0u);
  EXPECT_GT(scheduler.accumulated().covered(), 0u);
}

TEST(AdaptiveScheduler, SeedLengthsVaryAcrossArms) {
  fuzz::BackendConfig backend_config;
  backend_config.core = soc::CoreKind::kCva6;
  fuzz::Backend backend(backend_config);

  fuzz::PolicyConfig config;
  config.length_policy = std::make_shared<SeedLengthPolicy>(
      std::vector<unsigned>{8, 40}, len_bandit(2));
  MabScheduler scheduler(backend, mab::make_bandit("ucb", config.bandit),
                         config);
  std::set<std::size_t> seed_sizes;
  for (std::size_t a = 0; a < scheduler.num_arms(); ++a) {
    seed_sizes.insert(scheduler.arm(a).seed().words.size());
  }
  // With 10 arms drawing from {8, 40}, both lengths almost surely appear.
  EXPECT_GE(seed_sizes.size(), 2u);
}

// --- Thompson sampling ---------------------------------------------------------------

TEST(ThompsonTest, IncrementalMeanUpdate) {
  mab::Thompson bandit(3, common::Xoshiro256StarStar(11));
  bandit.update(1, 4.0);
  bandit.update(1, 6.0);
  EXPECT_DOUBLE_EQ(bandit.mean(1), 5.0);
  EXPECT_EQ(bandit.n(1), 2u);
}

TEST(ThompsonTest, ConvergesToBestArm) {
  mab::Thompson bandit(4, common::Xoshiro256StarStar(13));
  common::Xoshiro256StarStar env(17);
  int late_best = 0;
  for (int t = 0; t < 3000; ++t) {
    const std::size_t arm = bandit.select();
    const double reward = env.next_bool(arm == 2 ? 0.8 : 0.2) ? 1.0 : 0.0;
    bandit.update(arm, reward);
    if (t >= 2250) {
      late_best += arm == 2;
    }
  }
  EXPECT_GT(late_best, 500);  // > 2/3 of late pulls on the best arm
}

TEST(ThompsonTest, ResetRestoresPrior) {
  mab::Thompson bandit(2, common::Xoshiro256StarStar(19));
  for (int i = 0; i < 50; ++i) {
    bandit.update(0, 1.0);
  }
  bandit.reset_arm(0);
  EXPECT_DOUBLE_EQ(bandit.mean(0), 0.0);
  EXPECT_EQ(bandit.n(0), 0u);
}

TEST(ThompsonTest, FactoryBuildsIt) {
  mab::BanditConfig config;
  config.num_arms = 5;
  const auto bandit = mab::make_bandit("thompson", config);
  EXPECT_EQ(bandit->name(), "thompson");
  EXPECT_EQ(bandit->num_arms(), 5u);
  EXPECT_FALSE(bandit->requires_normalized_reward());
}

// --- TestCase provenance ---------------------------------------------------------------

TEST(OperatorProvenance, MutantsRecordAppliedOps) {
  fuzz::BackendConfig config;
  fuzz::Backend backend(config);
  const fuzz::TestCase seed = backend.make_seed();
  EXPECT_TRUE(seed.mutation_ops.empty());
  const fuzz::TestCase mutant = backend.make_mutant(seed);
  EXPECT_FALSE(mutant.mutation_ops.empty());
  for (const std::uint8_t op : mutant.mutation_ops) {
    EXPECT_LT(op, mutation::kNumOps);
  }
}

TEST(OperatorProvenance, ExplicitSeedLengthHonoured) {
  fuzz::BackendConfig config;
  fuzz::Backend backend(config);
  EXPECT_EQ(backend.make_seed(8).words.size(), 8u);
  EXPECT_EQ(backend.make_seed(40).words.size(), 40u);
  EXPECT_EQ(backend.make_seed(0).words.size(), fuzz::kSeedLength);
}

}  // namespace
}  // namespace mabfuzz::core
