#include "mab/registry.hpp"

#include <utility>

#include "mab/epsilon_greedy.hpp"
#include "mab/exp3.hpp"
#include "mab/thompson.hpp"
#include "mab/ucb.hpp"

namespace mabfuzz::mab {

BanditRegistry& BanditRegistry::instance() {
  static BanditRegistry registry;
  return registry;
}

std::unique_ptr<Bandit> make_bandit(std::string_view name,
                                    const BanditConfig& config) {
  return BanditRegistry::instance().create(name, config);
}

// --- built-in self-registration -------------------------------------------------
//
// Lives in the same translation unit as instance() so any binary that can
// reach the registry has the built-ins linked in; the Meyers singleton
// makes the cross-TU initialisation order irrelevant. Each factory derives
// the bandit's exploration stream from (seed, policy name) — the exact
// streams the pre-registry enum factory produced.

namespace {

const BanditRegistration kEpsilonGreedy{
    "epsilon-greedy", [](const BanditConfig& config) -> std::unique_ptr<Bandit> {
      return std::make_unique<EpsilonGreedy>(
          config.num_arms, config.epsilon,
          common::make_stream(config.rng_seed, 0, "epsilon-greedy"));
    }};

const BanditRegistration kUcbRegistration{
    "ucb", [](const BanditConfig& config) -> std::unique_ptr<Bandit> {
      return std::make_unique<Ucb>(config.num_arms,
                                   common::make_stream(config.rng_seed, 0, "ucb"));
    }};

const BanditRegistration kExp3Registration{
    "exp3", [](const BanditConfig& config) -> std::unique_ptr<Bandit> {
      return std::make_unique<Exp3>(config.num_arms, config.eta,
                                    common::make_stream(config.rng_seed, 0, "exp3"));
    }};

const BanditRegistration kThompsonRegistration{
    "thompson", [](const BanditConfig& config) -> std::unique_ptr<Bandit> {
      return std::make_unique<Thompson>(
          config.num_arms, common::make_stream(config.rng_seed, 0, "thompson"));
    }};

}  // namespace

}  // namespace mabfuzz::mab
