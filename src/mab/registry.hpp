#pragma once
// String-keyed bandit-policy registry: the single construction path for
// every MAB algorithm in the system. Built-ins (epsilon-greedy, ucb, exp3,
// thompson) self-register at static-initialisation time. Every name here
// is also a fuzzer name: harness::Campaign runs core::MabScheduler over the
// bandit of that name (CampaignConfig::fuzzer, mabfuzz_cli --fuzzer, the
// bench sweeps), so a custom bandit registered here is selectable as a
// fuzzer with no further call — see examples/custom_bandit.cpp.
//
// Lookup misses throw std::invalid_argument whose message lists every
// registered name, so a typo on the command line is self-explaining.

#include <memory>
#include <string>
#include <string_view>

#include "common/registry.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::mab {

class BanditRegistry
    : public common::NamedRegistry<
          std::function<std::unique_ptr<Bandit>(const BanditConfig&)>> {
 public:
  /// The process-wide registry (Meyers singleton: safe to use from static
  /// initialisers in other translation units).
  [[nodiscard]] static BanditRegistry& instance();

  /// Builds the bandit registered under `name`.
  /// Throws std::invalid_argument listing all known names on a miss.
  [[nodiscard]] std::unique_ptr<Bandit> create(std::string_view name,
                                               const BanditConfig& config) const {
    return lookup(name)(config);
  }

 private:
  BanditRegistry() : NamedRegistry("bandit policy", "bandit policies") {}
};

/// File-scope self-registration helper:
///   const mab::BanditRegistration kMine{"mine", [](const BanditConfig& c) {
///     return std::make_unique<MyBandit>(c.num_arms, ...);
///   }};
struct BanditRegistration {
  BanditRegistration(std::string name, BanditRegistry::Factory factory) {
    BanditRegistry::instance().add(std::move(name), std::move(factory));
  }
};

/// Convenience: build a bandit by policy name through the registry.
/// The bandit's exploration stream is derived from (config.rng_seed, the
/// policy name), so the same config replays bit-identically.
[[nodiscard]] std::unique_ptr<Bandit> make_bandit(std::string_view name,
                                                  const BanditConfig& config);

}  // namespace mabfuzz::mab
