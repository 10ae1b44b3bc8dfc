#include "core/register.hpp"

#include <memory>
#include <utility>

#include "core/scheduler.hpp"
#include "fuzz/registry.hpp"
#include "mab/registry.hpp"

namespace mabfuzz::core {

namespace {

MabFuzzConfig scheduler_config_of(const fuzz::PolicyConfig& policy) {
  MabFuzzConfig config;
  config.num_arms = policy.bandit.num_arms;
  config.alpha = policy.alpha;
  config.gamma = policy.gamma;
  config.mutants_per_interesting = policy.mutants_per_interesting;
  config.arm_pool_cap = policy.arm_pool_cap;
  config.feed_operator_rewards = policy.feed_operator_rewards;
  config.length_policy = policy.length_policy;
  config.corpus = policy.corpus;
  return config;
}

}  // namespace

void register_mab_policy(const std::string& name) {
  fuzz::FuzzerRegistry::instance().add(
      name, [name](fuzz::Backend& backend, const fuzz::PolicyConfig& policy)
                -> std::unique_ptr<fuzz::Fuzzer> {
        auto bandit = mab::BanditRegistry::instance().create(name, policy.bandit);
        return std::make_unique<MabScheduler>(backend, std::move(bandit),
                                              scheduler_config_of(policy));
      });
}

namespace {

const bool kBuiltinsRegistered = [] {
  for (const char* name : {"epsilon-greedy", "ucb", "exp3", "thompson"}) {
    register_mab_policy(name);
  }
  return true;
}();

}  // namespace

void ensure_builtin_policies_registered() {
  (void)kBuiltinsRegistered;  // referencing the flag pins the static init
}

}  // namespace mabfuzz::core
