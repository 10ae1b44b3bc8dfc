#pragma once
// String-keyed fuzzer (scheduling-policy) registry and the unified policy
// configuration every policy consumes. A "fuzzer" here is a complete
// scheduling policy over a shared Backend: the TheHuzz FIFO baseline, the
// random-regression control and the corpus-reuse fuzzer register here.
// Every mab::BanditRegistry name is a fuzzer name too: harness::Campaign
// resolves a name this registry does not hold to core::MabScheduler over
// the bandit of that name.
//
// The registries are the experiment-construction seam the paper's
// methodology needs: the policy is the *only* variable, selected by name,
// with every other knob living in one PolicyConfig.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/registry.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/thehuzz.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::core {
class SeedLengthPolicy;  // core/adaptive.hpp; carried opaquely here
}  // namespace mabfuzz::core

namespace mabfuzz::fuzz {

class Corpus;  // fuzz/corpus.hpp; carried opaquely here

/// The unified scheduling-policy configuration (paper Sec. III / IV-A
/// defaults). Each policy reads the fields relevant to it: the MABFuzz
/// scheduler consumes `bandit` plus the MABFuzz shaping knobs; TheHuzz
/// consumes `thehuzz` plus the shared mutant burst (the experimental
/// control); the extensions block enables the Sec. V adaptive policies.
struct PolicyConfig {
  /// Bandit parameters — the single home of num_arms / epsilon / eta.
  mab::BanditConfig bandit{};

  /// MABFuzz scheduler shaping (paper Sec. IV-A).
  double alpha = 0.25;                   // reward mix R = α|covL| + (1-α)|covG|
  std::size_t gamma = 3;                 // reset threshold; 0 disables resets
  unsigned mutants_per_interesting = 5;  // burst shared with the baseline
  std::size_t arm_pool_cap = 1024;
  bool feed_operator_rewards = true;

  /// Baseline-only parameters; the mutant burst above is shared.
  TheHuzzConfig thehuzz{};

  /// Sec. V extensions. The declarative flags are materialised by
  /// harness::Campaign (which owns the RNG stream derivation); a directly
  /// provided length_policy takes precedence over adaptive_length.
  bool adaptive_operators = false;       // MAB mutation-operator selection
  double adaptive_op_epsilon = 0.15;
  bool adaptive_length = false;          // MAB seed-length selection
  std::vector<unsigned> length_choices{12, 20, 28, 40};
  std::shared_ptr<core::SeedLengthPolicy> length_policy;

  /// Cross-campaign corpus reuse (fuzz/corpus.hpp). `corpus` is the store
  /// campaigns share tests through — materialised by harness::Campaign
  /// from its corpus-in/corpus-out keys; when null, the "reuse" fuzzer
  /// creates a campaign-private store of `corpus_cap` entries. Every
  /// policy (thehuzz, random, the bandit schedulers, reuse) offers its
  /// executed tests to the store when one is present. `reuse_bandit`
  /// names the mab::BanditRegistry policy the reuse fuzzer selects seeds
  /// with (Thompson sampling by default, per ReFuzz).
  std::string reuse_bandit = "thompson";
  std::size_t corpus_cap = 256;
  std::shared_ptr<Corpus> corpus;
};

class FuzzerRegistry
    : public common::NamedRegistry<std::function<std::unique_ptr<Fuzzer>(
          Backend&, const PolicyConfig&)>> {
 public:
  [[nodiscard]] static FuzzerRegistry& instance();

  /// Builds the policy registered under `name` on top of `backend`.
  /// Throws std::invalid_argument listing all known names on a miss.
  [[nodiscard]] std::unique_ptr<Fuzzer> create(std::string_view name,
                                               Backend& backend,
                                               const PolicyConfig& config) const {
    return lookup(name)(backend, config);
  }

 private:
  FuzzerRegistry() : NamedRegistry("fuzzer policy", "fuzzer policies") {}
};

/// File-scope self-registration helper, mirroring mab::BanditRegistration.
struct FuzzerRegistration {
  FuzzerRegistration(std::string name, FuzzerRegistry::Factory factory) {
    FuzzerRegistry::instance().add(std::move(name), std::move(factory));
  }
};

}  // namespace mabfuzz::fuzz
