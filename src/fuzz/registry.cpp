#include "fuzz/registry.hpp"

#include "fuzz/random_fuzzer.hpp"
#include "fuzz/reuse_fuzzer.hpp"
#include "mab/registry.hpp"

namespace mabfuzz::fuzz {

FuzzerRegistry& FuzzerRegistry::instance() {
  static FuzzerRegistry registry;
  return registry;
}

// --- built-in self-registration -------------------------------------------------
//
// The fuzz-layer policies register here, in the registry's own TU, so they
// are always linked. The MABFuzz scheduler lives one layer up and needs no
// entry: harness::Campaign builds it for every mab::BanditRegistry name.

namespace {

const FuzzerRegistration kTheHuzzRegistration{
    "thehuzz",
    [](Backend& backend, const PolicyConfig& config) -> std::unique_ptr<Fuzzer> {
      return std::make_unique<TheHuzz>(backend, config);
    }};

const FuzzerRegistration kRandomRegistration{
    "random",
    [](Backend& backend, const PolicyConfig& config) -> std::unique_ptr<Fuzzer> {
      return std::make_unique<RandomFuzzer>(backend, config);
    }};

const FuzzerRegistration kReuseRegistration{
    "reuse",
    [](Backend& backend, const PolicyConfig& config) -> std::unique_ptr<Fuzzer> {
      return std::make_unique<ReuseFuzzer>(
          backend,
          mab::BanditRegistry::instance().create(config.reuse_bandit,
                                                 config.bandit),
          config);
    }};

}  // namespace

}  // namespace mabfuzz::fuzz
