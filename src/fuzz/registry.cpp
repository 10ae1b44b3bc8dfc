#include "fuzz/registry.hpp"

#include "fuzz/corpus.hpp"
#include "fuzz/random_fuzzer.hpp"
#include "fuzz/reuse_fuzzer.hpp"
#include "mab/registry.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::fuzz {

FuzzerRegistry& FuzzerRegistry::instance() {
  static FuzzerRegistry registry;
  return registry;
}

// --- built-in self-registration -------------------------------------------------
//
// The fuzz-layer policies register here, in the registry's own TU, so they
// are always linked. The bandit-backed MABFuzz schedulers live one layer up
// and register from core/register.cpp.

namespace {

const FuzzerRegistration kTheHuzzRegistration{
    "thehuzz",
    [](Backend& backend, const PolicyConfig& config) -> std::unique_ptr<Fuzzer> {
      // The mutant burst is shared across all policies (experimental
      // control): the unified knob overrides the baseline-local one.
      TheHuzzConfig thehuzz = config.thehuzz;
      thehuzz.mutants_per_interesting = config.mutants_per_interesting;
      thehuzz.corpus = config.corpus;
      return std::make_unique<TheHuzz>(backend, thehuzz);
    }};

const FuzzerRegistration kRandomRegistration{
    "random",
    [](Backend& backend, const PolicyConfig&) -> std::unique_ptr<Fuzzer> {
      return std::make_unique<RandomFuzzer>(backend);
    }};

const FuzzerRegistration kReuseRegistration{
    "reuse",
    [](Backend& backend, const PolicyConfig& config) -> std::unique_ptr<Fuzzer> {
      // Usually the campaign materialised the shared store (corpus-in /
      // corpus-out); a bare construction gets a campaign-private one.
      std::shared_ptr<Corpus> corpus = config.corpus;
      if (!corpus) {
        corpus = std::make_shared<Corpus>(
            std::string(soc::core_name(backend.config().core)),
            backend.coverage_universe(), config.corpus_cap);
      }
      ReuseConfig reuse;
      reuse.gamma = config.gamma;
      auto bandit =
          mab::BanditRegistry::instance().create(config.reuse_bandit,
                                                 config.bandit);
      return std::make_unique<ReuseFuzzer>(backend, std::move(corpus),
                                           std::move(bandit), reuse);
    }};

}  // namespace

}  // namespace mabfuzz::fuzz
