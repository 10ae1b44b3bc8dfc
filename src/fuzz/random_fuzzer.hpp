#pragma once
// Random-regression baseline: fresh random seeds only, no coverage
// feedback, no mutation — the pre-fuzzing verification practice the
// paper's introduction contrasts hardware fuzzers against. Useful as a
// scientific control: any fuzzer worth its name must beat this. Like every
// policy it offers each executed test to the campaign's shared corpus, if
// any; the store never feeds back into its choices.

#include <memory>

#include "fuzz/backend.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/registry.hpp"

namespace mabfuzz::fuzz {

class RandomFuzzer final : public Fuzzer {
 public:
  RandomFuzzer(Backend& backend, const PolicyConfig& policy)
      : backend_(backend), corpus_(policy.corpus),
        accumulated_(backend.coverage_universe()) {}

  StepResult step() override {
    const TestCase test = backend_.make_seed();
    const TestOutcome& outcome = backend_.run_test(test);
    StepResult result;
    result.test_index = ++steps_;
    result.mismatch = outcome.mismatch.has_value();
    result.firings = outcome.dut.firings;
    result.new_global_points = accumulated_.absorb(outcome.dut.test_coverage);
    if (corpus_) {
      corpus_->offer(test, outcome.dut.test_coverage);
    }
    return result;
  }

  [[nodiscard]] const coverage::Accumulator& accumulated() const override {
    return accumulated_;
  }
  [[nodiscard]] std::string_view name() const override {
    return "RandomRegression";
  }

  /// The coverage map and steps; every test is a fresh backend seed.
  void save_state(std::string& out) const override {
    accumulated_.save_state(out);
    common::put_u64(out, steps_);
  }
  void restore_state(common::ByteReader& in) override {
    accumulated_.restore_state(in);
    steps_ = in.u64("random steps");
  }

 private:
  Backend& backend_;
  std::shared_ptr<Corpus> corpus_;  // the campaign's shared store, or null
  coverage::Accumulator accumulated_;
  std::uint64_t steps_ = 0;
};

}  // namespace mabfuzz::fuzz
