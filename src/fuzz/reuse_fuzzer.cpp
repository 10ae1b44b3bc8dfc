#include "fuzz/reuse_fuzzer.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "fuzz/registry.hpp"
#include "soc/cores.hpp"

namespace mabfuzz::fuzz {

ReuseFuzzer::ReuseFuzzer(Backend& backend, std::unique_ptr<mab::Bandit> bandit,
                         const PolicyConfig& policy)
    : backend_(backend), corpus_(policy.corpus),
      private_store_(policy.corpus == nullptr), bandit_(std::move(bandit)),
      global_(backend.coverage_universe()) {
  if (!bandit_ || bandit_->num_arms() == 0) {
    std::abort();  // mis-wired construction is a programming error
  }
  if (private_store_) {
    corpus_ = std::make_shared<Corpus>(
        std::string(soc::core_name(backend_.config().core)),
        backend_.coverage_universe(), policy.corpus_cap);
  }

  // Rank the start-of-campaign corpus snapshot best-novelty first (ties:
  // older entry first) — the deterministic arm-assignment order.
  std::vector<const CorpusEntry*> ranked;
  ranked.reserve(corpus_->size());
  for (const CorpusEntry& entry : corpus_->entries()) {
    ranked.push_back(&entry);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const CorpusEntry* a, const CorpusEntry* b) {
              return a->novelty != b->novelty ? a->novelty > b->novelty
                                              : a->order < b->order;
            });

  const std::size_t num_arms = bandit_->num_arms();
  arms_.reserve(num_arms);
  for (std::size_t a = 0; a < num_arms; ++a) {
    ArmState arm;
    arm.monitor = coverage::GammaWindowMonitor(policy.gamma);
    if (a < ranked.size()) {
      arm.parent = ranked[a]->test;
      ++arms_from_corpus_;
    } else {
      arm.parent = backend_.make_seed();
    }
    arms_.push_back(std::move(arm));
  }
  // Entries beyond the arm count wait in reserve for depletion re-seeding.
  for (std::size_t i = num_arms; i < ranked.size(); ++i) {
    reserve_.push_back(ranked[i]->test);
  }
  name_ = "Reuse:" + std::string(bandit_->name());
}

TestCase ReuseFuzzer::next_replacement() {
  if (reserve_cursor_ < reserve_.size()) {
    return reserve_[reserve_cursor_++];
  }
  return backend_.make_seed();
}

StepResult ReuseFuzzer::step() {
  // 1. The agent picks a corpus arm.
  const std::size_t selected = bandit_->select();
  ArmState& arm = arms_[selected];

  // 2. First pull replays the arm's test itself (rebuilding this
  // campaign's coverage state); later pulls run one fresh mutant of it.
  TestCase test;
  const bool is_replay = !arm.executed;
  if (is_replay) {
    arm.executed = true;
    test = arm.parent;
  } else {
    test = backend_.make_mutant(arm.parent);
  }
  backend_.run_test(test, outcome_);

  StepResult result;
  result.test_index = ++steps_;
  result.mismatch = outcome_.mismatch;
  result.firings = outcome_.firings;
  result.arm = selected;
  result.new_global_points = global_.absorb(outcome_.coverage);

  // 3. Feed the store; an admitted mutant becomes the arm's working test
  // (hill-climb toward the newest interesting descendant). A corpus-loaded
  // parent's id belongs to a previous campaign's id space, so the replay
  // flag — not an id comparison — distinguishes parent from mutant.
  const bool admitted = corpus_->offer(test, outcome_.coverage);
  if (admitted && !is_replay) {
    arm.parent = test;
  }

  // 4. Reward = new-coverage-per-mutant, normalised by |C| when the
  // algorithm (EXP3) assumes rewards in [0, 1].
  double reward = static_cast<double>(result.new_global_points);
  if (bandit_->requires_normalized_reward()) {
    const auto universe = static_cast<double>(backend_.coverage_universe());
    reward = universe > 0 ? reward / universe : 0.0;
  }
  bandit_->update(selected, reward);

  // 5. γ pulls without new coverage deplete the arm: re-seed it from the
  // best unused corpus entry (or a fresh seed) and reset its statistics.
  if (arm.monitor.record(result.new_global_points)) {
    arm.parent = next_replacement();
    arm.executed = false;
    arm.monitor.reset();
    bandit_->reset_arm(selected);
    ++total_resets_;
  }
  return result;
}

void ReuseFuzzer::append_state(std::string& out) const {
  mab::state_put_u64(out, steps_);
  mab::state_put_u64(out, total_resets_);
  mab::state_put_u64(out, reserve_cursor_);
  bandit_->save_state(out);
}

void ReuseFuzzer::save_state(std::string& out) const {
  common::put_u64(out, arms_.size());
  for (const ArmState& arm : arms_) {
    put_test(out, arm.parent);
    out.push_back(arm.executed ? '\1' : '\0');
    arm.monitor.save_state(out);
  }
  common::put_u64(out, reserve_cursor_);
  global_.save_state(out);
  common::put_u64(out, steps_);
  common::put_u64(out, total_resets_);
  bandit_->save_state(out);
  if (private_store_) {
    common::put_blob(out, corpus_->image());
  }
}

void ReuseFuzzer::restore_state(common::ByteReader& in) {
  const std::uint64_t num_arms = in.u64("reuse arm count");
  if (num_arms != arms_.size()) {
    in.fail("reuse arm count " + std::to_string(num_arms) +
            " does not match the bandit's " + std::to_string(arms_.size()));
  }
  for (ArmState& arm : arms_) {
    arm.parent = read_test(in);
    const std::uint8_t executed = in.u8("reuse arm executed flag");
    if (executed > 1) {
      in.fail("reuse arm executed flag must be 0 or 1");
    }
    arm.executed = executed == 1;
    arm.monitor.restore_state(in);
  }
  reserve_cursor_ = static_cast<std::size_t>(
      in.count("reuse reserve cursor", reserve_.size()));
  global_.restore_state(in);
  steps_ = in.u64("reuse steps");
  total_resets_ = in.u64("reuse resets");
  bandit_->restore_state(in);
  if (private_store_) {
    Corpus store = Corpus::from_image(
        in.blob("reuse corpus image", Corpus::kMaxImageBytes));
    if (store.core() != corpus_->core() ||
        store.universe() != corpus_->universe()) {
      in.fail("reuse corpus image was recorded on '" + store.core() +
              "' with universe " + std::to_string(store.universe()) +
              ", not this campaign's DUT");
    }
    *corpus_ = std::move(store);
  }
}

}  // namespace mabfuzz::fuzz
