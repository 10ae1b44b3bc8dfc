#pragma once
// The corpus-reuse fuzzer (ReFuzz-style cross-campaign scheduling): corpus
// entries are the bandit's arms. Entries are ranked by admission novelty
// and the best ones become arms; an arm's first pull re-executes its
// corpus test (rebuilding this campaign's coverage state), later pulls run
// one fresh mutant of the arm's current working test through the shared
// mutation::Engine. The reward fed to the bandit is the pull's
// globally-new coverage — new-coverage-per-mutant — normalised by |C| for
// algorithms that require it. Any mab::BanditRegistry policy drives the
// selection (Thompson sampling by default, following ReFuzz).
//
// Hill-climb rule: a mutant the corpus admits (it covered something the
// corpus had never seen) becomes its arm's working test, so the arm keeps
// mutating its newest interesting descendant. Arms that produce no new
// coverage for γ consecutive pulls are depleted: the arm is re-seeded from
// the next-best unused corpus entry (fresh random seeds once the corpus
// is exhausted) and the bandit's statistics for it are reset — the same
// γ-window mechanism as the MABFuzz scheduler.
//
// Every executed test is offered back to the corpus, so a campaign both
// consumes and extends the store: --corpus-out after --corpus-in persists
// the union for the next campaign.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coverage/monitor.hpp"
#include "fuzz/backend.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "mab/bandit.hpp"

namespace mabfuzz::fuzz {

struct PolicyConfig;  // fuzz/registry.hpp

class ReuseFuzzer final : public Fuzzer {
 public:
  /// `bandit->num_arms()` fixes the arm count. The store is the campaign's
  /// shared `policy.corpus`, or a private one of `policy.corpus_cap`
  /// entries when that is null. The corpus supplies the initial arm seeds
  /// (best-novelty first); missing arms start from fresh random seeds —
  /// an empty corpus degrades to a cold-start mutational fuzzer whose
  /// discoveries populate the store. `policy.gamma` is the per-arm
  /// depletion threshold; 0 disables arm replacement (paper Sec. III-C).
  ReuseFuzzer(Backend& backend, std::unique_ptr<mab::Bandit> bandit,
              const PolicyConfig& policy);

  StepResult step() override;

  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return global_;
  }
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] const Corpus& corpus() const noexcept { return *corpus_; }
  [[nodiscard]] const mab::Bandit& bandit() const noexcept { return *bandit_; }
  [[nodiscard]] std::size_t num_arms() const noexcept { return arms_.size(); }
  /// The arm's current working test (the mutation parent).
  [[nodiscard]] const TestCase& arm_parent(std::size_t arm) const {
    return arms_.at(arm).parent;
  }
  /// How many arms were seeded from the corpus (vs fresh random seeds).
  [[nodiscard]] std::size_t arms_from_corpus() const noexcept {
    return arms_from_corpus_;
  }
  [[nodiscard]] std::uint64_t total_resets() const noexcept {
    return total_resets_;
  }

  /// Per arm the parent, whether it ran and the monitor; the reserve
  /// cursor (construction rebuilds the reserve list), the coverage map,
  /// steps, resets and the bandit; and the store's corpus-v2 image when it
  /// is private (a shared store travels with the checkpoint itself).
  void save_state(std::string& out) const override;
  void restore_state(common::ByteReader& in) override;

  /// Checkpoint state witness: steps, resets, reserve cursor, and the
  /// seed-selection bandit's full state.
  void append_state(std::string& out) const override;

 private:
  struct ArmState {
    TestCase parent;  // current working test; mutation parent once executed
    bool executed = false;  // parent itself already run this campaign
    coverage::GammaWindowMonitor monitor;
  };

  /// Next arm seed on depletion: the best unused corpus entry, then fresh
  /// random seeds.
  [[nodiscard]] TestCase next_replacement();

  Backend& backend_;
  std::shared_ptr<Corpus> corpus_;
  bool private_store_;  // corpus_ is this fuzzer's own, not the campaign's
  std::unique_ptr<mab::Bandit> bandit_;
  std::vector<ArmState> arms_;
  std::vector<TestCase> reserve_;  // unused corpus entries, best-first
  std::size_t reserve_cursor_ = 0;
  std::size_t arms_from_corpus_ = 0;
  coverage::Accumulator global_;
  std::string name_;
  std::uint64_t steps_ = 0;
  std::uint64_t total_resets_ = 0;
};

}  // namespace mabfuzz::fuzz
